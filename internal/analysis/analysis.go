// Package analysis implements commvet, a stdlib-only static-analysis
// suite for the hand-maintained concurrency disciplines of this module:
// zero-on-release pooling, cache-line padding and the telemetry double
// gate, plus static verification of commutativity specifications
// (specvet). The dynamic checks — race-detector stress sweeps, the
// abstract-lock fast cell's targeted tests and brute-force model
// enumeration — stay as the backstop; the analyzers here are the first
// line of defense, cheap enough to run on every build: this package's
// TestModuleHasNoFindings runs them over the whole module under
// `go test ./...`.
//
// Analyzers communicate through source directives:
//
//	//commvet:ignore <reason>        suppress findings on this line and the next
//	                                 (or, on a function's doc comment, in the
//	                                 whole function); the reason is mandatory
//	//commvet:observation            marks a function whose call sites must be
//	                                 dominated by an enabled gate (gatecheck)
//	//commvet:gate                   marks a function whose result counts as
//	                                 that gate
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      string // file:line:col
	Message  string
}

// An Analyzer checks one invariant over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Suite is the full analyzer suite in a stable order.
var Suite = []*Analyzer{PoolZero, PadCheck, GateCheck}

// Pass is one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Sizes    types.Sizes
	Facts    *Facts
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos).String(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer in Suite over the given packages, shares
// one directive fact base across all of them, and filters the result
// through the //commvet:ignore suppressions. Findings come back sorted
// by position.
func Run(pkgs []*Package, sizes types.Sizes) []Finding {
	facts := CollectFacts(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		sup := newSuppressor(pkg)
		var local []Finding
		report := func(f Finding) {
			local = append(local, f)
		}
		// Bare ignores are themselves findings: an escape hatch with no
		// recorded reason defeats the point of the audit trail.
		for _, pos := range sup.bare {
			local = append(local, Finding{
				Analyzer: "ignore",
				Pos:      pkg.Fset.Position(pos).String(),
				Message:  "commvet:ignore without a reason; say why the invariant holds anyway",
			})
		}
		for _, a := range Suite {
			pass := &Pass{Analyzer: a, Pkg: pkg, Sizes: sizes, Facts: facts, report: report}
			a.Run(pass)
		}
		findings = append(findings, sup.filter(local)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

// directiveArg extracts the argument text of a //commvet:<name> directive
// from a comment group. ok reports whether the directive is present at
// all; the string is the trimmed text after the directive word.
func directiveArg(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	prefix := "//commvet:" + name
	for _, c := range cg.List {
		if c.Text == prefix {
			return "", true
		}
		if rest, ok := strings.CutPrefix(c.Text, prefix+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// suppressor indexes the //commvet:ignore directives of one package:
// line-scoped ignores (same line or the line immediately below the
// comment) and function-scoped ignores (directive in the function's doc
// comment covers its whole body).
type suppressor struct {
	pkg   *Package
	lines map[string]map[int]bool // file -> ignored lines
	spans []span                  // function-scoped ranges
	bare  []token.Pos             // ignores with no reason
}

type span struct {
	file     string
	from, to int
}

func newSuppressor(pkg *Package) *suppressor {
	s := &suppressor{pkg: pkg, lines: map[string]map[int]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//commvet:ignore")
				if !ok {
					continue
				}
				if strings.TrimSpace(rest) == "" {
					s.bare = append(s.bare, c.Pos())
				}
				p := pkg.Fset.Position(c.Pos())
				if s.lines[p.Filename] == nil {
					s.lines[p.Filename] = map[int]bool{}
				}
				s.lines[p.Filename][p.Line] = true
				s.lines[p.Filename][p.Line+1] = true
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := directiveArg(fd.Doc, "ignore"); ok {
				from := pkg.Fset.Position(fd.Pos())
				to := pkg.Fset.Position(fd.End())
				s.spans = append(s.spans, span{file: from.Filename, from: from.Line, to: to.Line})
			}
		}
	}
	return s
}

func (s *suppressor) suppressed(pos string) bool {
	// pos is "file:line:col".
	i := strings.LastIndex(pos, ":")
	if i < 0 {
		return false
	}
	j := strings.LastIndex(pos[:i], ":")
	if j < 0 {
		return false
	}
	file := pos[:j]
	var line int
	fmt.Sscanf(pos[j+1:i], "%d", &line)
	if s.lines[file][line] {
		return true
	}
	for _, sp := range s.spans {
		if sp.file == file && sp.from <= line && line <= sp.to {
			return true
		}
	}
	return false
}

func (s *suppressor) filter(fs []Finding) []Finding {
	out := fs[:0]
	for _, f := range fs {
		if f.Analyzer != "ignore" && s.suppressed(f.Pos) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Facts is the module-wide directive registry, collected from every
// analyzed package before any analyzer runs so that cross-package
// obligations (telemetry observations called from gatekeeper code)
// resolve.
type Facts struct {
	Observations map[*types.Func]bool
	Gates        map[*types.Func]bool
}

// CollectFacts scans every package's directives into one fact base.
func CollectFacts(pkgs []*Package) *Facts {
	facts := &Facts{
		Observations: map[*types.Func]bool{},
		Gates:        map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
				if obj == nil {
					continue
				}
				if _, ok := directiveArg(decl.Doc, "observation"); ok {
					facts.Observations[obj] = true
				}
				if _, ok := directiveArg(decl.Doc, "gate"); ok {
					facts.Gates[obj] = true
				}
			}
		}
	}
	return facts
}

// --- shared AST helpers ---

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// fieldOf resolves sel to the struct field it selects, or nil if it is
// not a field selection.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// selectorIn digs the field selector out of an assignment target,
// stripping index and star expressions: c.txs[i], *p.f, x.f.
func selectorIn(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeFunc resolves the called function or method of a call expression.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// inspectWithStack walks the file keeping the ancestor chain. fn is
// called in preorder; returning false skips the subtree.
func inspectWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// identObj resolves an identifier expression to its object.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
