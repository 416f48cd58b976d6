package analysis

import (
	"go/ast"
	"go/types"
)

// PadCheck verifies that structs documented as pad-separated really are:
// any struct declaring a blank cache-line pad field (`_ [N]byte`, N ≥ 8)
// must have a size of at least 64 bytes, so that adjacent elements of an
// array of them never share a whole cache line. A pad that shrinks below the line under refactoring
// (a field removed, a [56]byte pad left behind a now-smaller prefix)
// silently reintroduces the false sharing the pad was bought to prevent;
// the telemetry latency shards and the sharded gatekeeper's tickets both
// depend on this.
var PadCheck = &Analyzer{
	Name: "padcheck",
	Doc:  "pad-documented structs must be at least one cache line (64 bytes)",
	Run:  runPadCheck,
}

const cacheLine = 64

func runPadCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !hasPadField(info, st) {
					continue
				}
				tn, _ := info.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				size := pass.Sizes.Sizeof(tn.Type().Underlying())
				if size < cacheLine {
					pass.Reportf(ts.Pos(),
						"struct %s declares a cache-line pad but is only %d bytes; adjacent array elements will share a line (want ≥ %d)",
						ts.Name.Name, size, cacheLine)
				}
			}
		}
	}
}

// hasPadField reports whether the struct declares a blank byte-array pad
// of at least 8 bytes — the `_ [56]byte` idiom.
func hasPadField(info *types.Info, st *ast.StructType) bool {
	for _, fld := range st.Fields.List {
		blank := false
		for _, name := range fld.Names {
			if name.Name == "_" {
				blank = true
			}
		}
		if !blank {
			continue
		}
		tv, ok := info.Types[fld.Type]
		if !ok {
			continue
		}
		arr, ok := tv.Type.Underlying().(*types.Array)
		if !ok {
			continue
		}
		elem, ok := arr.Elem().Underlying().(*types.Basic)
		if ok && (elem.Kind() == types.Byte || elem.Kind() == types.Uint8) && arr.Len() >= 8 {
			return true
		}
	}
	return false
}
