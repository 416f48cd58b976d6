package spectext

import (
	"os"
	"path/filepath"
	"testing"

	"commlat/internal/apps"
)

// FuzzParseSpec feeds arbitrary text through the spec parser, seeded
// with the example spec files and the spelling of every shipped lattice
// point. Parse must never panic; when it
// accepts an input, the round trip Parse → Format → Parse must also
// succeed and reach a fixed point (formatting the reparsed spec yields
// the same text), so Format output is always valid parser input.
func FuzzParseSpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.spec"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no example spec files found to seed the corpus")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, p := range apps.Specs() {
		f.Add(Format(p.Spec()))
	}
	f.Add("")
	f.Add("spec s\nmethod m(x) bool\npair m ~ m: true\n")
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		text := Format(spec)
		spec2, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output rejected by Parse: %v\ninput:\n%s\nformatted:\n%s", err, src, text)
		}
		if text2 := Format(spec2); text2 != text {
			t.Fatalf("Format not idempotent\nfirst:\n%s\nsecond:\n%s", text, text2)
		}
	})
}
