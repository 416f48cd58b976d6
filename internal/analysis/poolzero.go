package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// PoolZero enforces zero-on-release for pooled objects: an object handed
// to sync.Pool.Put (or pushed onto a free stack, the TxCache idiom) must
// first have its reference-carrying fields cleared — pointers,
// interfaces, maps, funcs, strings, and slices whose elements carry
// references. A pooled object retains everything its fields point to for
// as long as it sits in the pool, which is exactly the leak class the
// MemStats retention tests catch dynamically; this pins it statically.
//
// A field counts as sanitized when, earlier in the same function, it is
// assigned anything but a reslice (x.f = x.f[:0] keeps the elements in
// the backing array), its elements are cleared (clear(x.f), or x.f[i] =
// ... in a loop), a method is called on it (x.f.Release()), the whole
// object is assigned a literal that does not name it (*x = T{...}), or a
// sanitizer method is called on the whole object (x.reset(), ...). Pools
// whose invariant is maintained elsewhere (hooks cleared by Commit/Abort
// before PutTx) carry a //commvet:ignore with the reason.
var PoolZero = &Analyzer{
	Name: "poolzero",
	Doc:  "objects returned to pools must zero reference-carrying fields",
	Run:  runPoolZero,
}

var sanitizerName = regexp.MustCompile(`(?i)^(reset|clear|zero|release|recycle|sanitize)`)

func runPoolZero(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isPoolPut(pass.Pkg.Info, x) && len(x.Args) == 1 {
					checkPoolRelease(pass, stack, x, x.Args[0])
				}
			case *ast.AssignStmt:
				// Free-stack push: x.free = append(x.free, obj).
				if obj, ok := freeStackPush(pass.Pkg.Info, x); ok {
					checkPoolRelease(pass, stack, x, obj)
				}
			}
			return true
		})
	}
}

func checkPoolRelease(pass *Pass, stack []ast.Node, site ast.Node, arg ast.Expr) {
	info := pass.Pkg.Info
	// Resolve the released object to a root variable; &x counts as x.
	root := unparen(arg)
	if u, ok := root.(*ast.UnaryExpr); ok {
		root = unparen(u.X)
	}
	obj := identObj(info, root)
	if obj == nil {
		return // not a simple variable; out of scope
	}
	tv, ok := info.Types[arg]
	if !ok {
		return
	}
	st := pointeeStruct(tv.Type)
	if st == nil {
		return
	}
	spill := spillFields(st)
	if len(spill) == 0 {
		return
	}

	body := enclosingBody(stack)
	if body == nil {
		return
	}
	missing := map[string]bool{}
	for _, f := range spill {
		missing[f.Name()] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		// Only sanitization that happens before the release site counts.
		if n.Pos() >= site.Pos() {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				// Whole-object reset, *x = T{...}: it clears every field
				// the literal does not name.
				if star, ok := unparen(lhs).(*ast.StarExpr); ok && identObj(info, unparen(star.X)) == obj && len(x.Rhs) == len(x.Lhs) {
					named := map[string]bool{}
					if lit, ok := unparen(x.Rhs[i]).(*ast.CompositeLit); ok {
						for _, el := range lit.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								named[fmt.Sprint(kv.Key)] = true
							}
						}
					}
					for k := range missing {
						if !named[k] {
							delete(missing, k)
						}
					}
				}
				sel := selectorIn(lhs)
				if sel == nil || identObj(info, sel.X) != obj {
					continue
				}
				_, reslice := unparen(x.Rhs[min(i, len(x.Rhs)-1)]).(*ast.SliceExpr)
				if v := fieldOf(info, sel); v != nil && !reslice {
					delete(missing, v.Name())
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "clear" && len(x.Args) == 1 {
				if sel := selectorIn(x.Args[0]); sel != nil && identObj(info, sel.X) == obj {
					delete(missing, sel.Sel.Name)
				}
			}
			sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Method on a spill field: x.f.Release().
			if fieldSel, ok := unparen(sel.X).(*ast.SelectorExpr); ok {
				if identObj(info, fieldSel.X) == obj {
					if v := fieldOf(info, fieldSel); v != nil {
						delete(missing, v.Name())
					}
				}
			}
			// Sanitizer on the whole object: x.reset().
			if identObj(info, sel.X) == obj && sanitizerName.MatchString(sel.Sel.Name) {
				for k := range missing {
					delete(missing, k)
				}
			}
		}
		return true
	})
	if len(missing) > 0 {
		names := make([]string, 0, len(missing))
		for k := range missing {
			names = append(names, k)
		}
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
		pass.Reportf(site.Pos(),
			"pooled object released with reference-carrying fields not cleared: %s; the pool pins them until reuse",
			strings.Join(names, ", "))
	}
}

// isPoolPut reports whether call is sync.Pool.Put.
func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Name() == "Pool"
}

// freeStackPush matches `x.free... = append(x.free..., obj)` where the
// slice element type is a pointer to a spill-carrying struct, returning
// the pushed object. This is the TxCache free-stack idiom.
func freeStackPush(info *types.Info, as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	sel := selectorIn(as.Lhs[0])
	if sel == nil || !strings.Contains(strings.ToLower(sel.Sel.Name), "free") {
		return nil, false
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, false
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return nil, false
	}
	obj := call.Args[len(call.Args)-1]
	tv, ok := info.Types[obj]
	if !ok || pointeeStruct(tv.Type) == nil {
		return nil, false
	}
	return obj, true
}

// pointeeStruct unwraps *Named-struct types.
func pointeeStruct(t types.Type) *types.Struct {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	s, _ := p.Elem().Underlying().(*types.Struct)
	return s
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// spillFields returns the fields of st whose types carry references.
func spillFields(st *types.Struct) []*types.Var {
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" {
			continue
		}
		if carriesRefs(f.Type(), map[types.Type]bool{}) {
			out = append(out, f)
		}
	}
	return out
}

// carriesRefs reports whether a value of type t can keep other objects
// alive: pointers, interfaces, maps, chans, funcs, strings, and slices
// or arrays or structs containing any of those. A slice of plain scalars
// is deliberately NOT a spill field — recycling scalar backing arrays
// (keys[:0]) is the whole point of the pools here.
func carriesRefs(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Slice:
		return carriesRefs(u.Elem(), seen)
	case *types.Array:
		return carriesRefs(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRefs(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// enclosingBody returns the innermost function body on the stack.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}
