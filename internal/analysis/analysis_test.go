package analysis

import (
	"path/filepath"
	"strings"
	"testing"

	"commlat/internal/core"
	"commlat/internal/spectext"
)

func fixtureFindings(t *testing.T, dir string) []Finding {
	t.Helper()
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("LoadDir(%s): empty package", dir)
	}
	return Run([]*Package{pkg}, loader.Sizes())
}

// TestModuleHasNoFindings runs the suite (poolzero, padcheck,
// gatecheck) over every package of the module: a finding, or a
// //commvet:ignore without a reason, fails it. specvet's subjects are
// vetted by TestVetSpecExamplesClean and the apps package's spec tests.
func TestModuleHasNoFindings(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded type-checking: -race slows it sevenfold and finds nothing")
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, f := range Run(pkgs, loader.Sizes()) {
		t.Errorf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	}
	t.Logf("%d packages", len(pkgs))
}

// TestAnalyzersOnFixtures drives the whole suite over each seeded
// fixture: every bad fixture must produce exactly the expected findings
// (that is what makes TestModuleHasNoFindings fail on such code), and
// every good fixture must be silent.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		dir  string
		want map[string]int // analyzer name -> finding count
	}{
		{"poolbad", map[string]int{"poolzero": 4}},
		{"poolgood", nil},
		{"padbad", map[string]int{"padcheck": 1}},
		{"padgood", nil},
		{"gatebad", map[string]int{"gatecheck": 1}},
		{"gategood", nil},
		{"ignorebad", map[string]int{"ignore": 1}},
		{"ignoregood", nil},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			fs := fixtureFindings(t, tc.dir)
			got := map[string]int{}
			for _, f := range fs {
				got[f.Analyzer]++
			}
			for name, n := range tc.want {
				if got[name] != n {
					t.Errorf("analyzer %s: got %d finding(s), want %d\nall: %v", name, got[name], n, fs)
				}
			}
			for name, n := range got {
				if tc.want[name] == 0 {
					t.Errorf("unexpected %s finding(s) (%d): %v", name, n, fs)
				}
			}
		})
	}
}

func TestVetSpecSymmetry(t *testing.T) {
	asym := `adt pair
method a(x)
method b(x)

a ~ a: v1.x < v2.x
a ~ b: true
b ~ b: true
`
	spec, err := spectext.Parse(asym)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fs := VetSpec("pair", spec)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "not provably symmetric") {
		t.Fatalf("want one symmetry finding, got %v", fs)
	}

	// The same spec with the pair declared oriented is accepted.
	oriented := strings.Replace(asym, "method b(x)\n", "method b(x)\noriented a ~ a\n", 1)
	spec, err = spectext.Parse(oriented)
	if err != nil {
		t.Fatalf("Parse oriented: %v", err)
	}
	if fs := VetSpec("pair", spec); len(fs) != 0 {
		t.Fatalf("oriented spec: want no findings, got %v", fs)
	}
}

func TestVetSpecMirror(t *testing.T) {
	// Stored mirror that is NOT the side swap of its counterpart.
	src := `adt pair
method a(x)
method b(x)

a ~ a: true
a ~ b: v1.x < v2.x
b ~ a: v1.x < v2.x
b ~ b: true
`
	spec, err := spectext.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fs := VetSpec("pair", spec)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "stored mirror") {
		t.Fatalf("want one mirror finding, got %v", fs)
	}

	// A true syntactic mirror proves and passes.
	good := strings.Replace(src, "b ~ a: v1.x < v2.x\n", "b ~ a: v2.x < v1.x\n", 1)
	spec, err = spectext.Parse(good)
	if err != nil {
		t.Fatalf("Parse mirror: %v", err)
	}
	if fs := VetSpec("pair", spec); len(fs) != 0 {
		t.Fatalf("mirrored spec: want no findings, got %v", fs)
	}
}

func TestVetSpecWellFormedness(t *testing.T) {
	sig := &core.ADTSig{Name: "t", Methods: []core.MethodSig{
		{Name: "a", Params: []string{"x"}},
		{Name: "b", Params: []string{"x"}, HasRet: true},
	}}
	spec := core.NewSpec(sig)
	// a has one parameter and no return: both terms are ill-formed.
	spec.Set("a", "a", core.Eq(core.Arg1(3), core.Ret2()))
	fs := VetSpec("t", spec)
	var idx, ret int
	for _, f := range fs {
		if strings.Contains(f.Message, "ill-formed") {
			if strings.Contains(f.Message, "argument") {
				idx++
			}
			if strings.Contains(f.Message, "returns nothing") {
				ret++
			}
		}
	}
	if idx != 1 || ret != 1 {
		t.Fatalf("want one index and one return ill-formedness finding, got %v", fs)
	}
}

// TestVetSpecExamplesClean is the acceptance check: every shipped spec
// is statically verified by the symbolic prover, no enumeration
// fallback.
func TestVetSpecExamplesClean(t *testing.T) {
	fs, n, err := VetSpecDir("../../examples/specs")
	if err != nil || n == 0 {
		t.Fatalf("VetSpecDir: %d files, %v", n, err)
	}
	if len(fs) != 0 {
		t.Fatalf("examples/specs must vet clean, got %v", fs)
	}
}
