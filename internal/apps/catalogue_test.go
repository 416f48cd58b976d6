package apps

import (
	"testing"

	"commlat/internal/engine"
)

// Every variant of every app, at one worker on a tiny input, computes
// what the unguarded algorithm computes and profiles to a parallelism of
// at least one; a second run of the same variant starts from a fresh
// structure and agrees again.
func TestCatalogueAgreesWithSequential(t *testing.T) {
	cat := Catalogue(Sizes{RMFa: 3, RMFb: 3, Mesh: 8, Points: 60, Parts: 4, Seed: 1})
	if len(cat) != 3 {
		t.Fatalf("catalogue has %d apps, want 3", len(cat))
	}
	reported := 0
	for _, app := range cat {
		want, wall := app.Sequential()
		if want == "" || wall <= 0 {
			t.Errorf("%s: sequential answer %q in %v", app.Key, want, wall)
		}
		for _, v := range app.Variants {
			if !v.Ablation {
				reported++
			}
			for run := 0; run < 2; run++ {
				got, err := v.Run(engine.Options{Workers: 1})
				if err != nil {
					t.Fatalf("%s/%s: %v", app.Key, v.Name, err)
				}
				if got.Answer != want {
					t.Errorf("%s/%s run %d: %q, sequential %q", app.Key, v.Name, run, got.Answer, want)
				}
				if got.Stats.Committed == 0 || got.Wall <= 0 {
					t.Errorf("%s/%s run %d: committed %d in %v", app.Key, v.Name, run, got.Stats.Committed, got.Wall)
				}
			}
			prof, err := v.Profile()
			if err != nil {
				t.Fatalf("%s/%s profile: %v", app.Key, v.Name, err)
			}
			if prof.AvgParallelism < 1 || prof.CriticalPath < 1 {
				t.Errorf("%s/%s profile: %+v", app.Key, v.Name, prof)
			}
		}
	}
	if reported != 7 {
		t.Errorf("%d reported variants, want Table 1's 7", reported)
	}
}

func TestLookupAndDefaultVariant(t *testing.T) {
	cat := Catalogue(Sizes{})
	for name, wantDefault := range map[string]string{
		"preflow": "ml", "Boruvka": "uf-gk", "cluster": "kd-gk",
	} {
		app, err := Lookup(cat, name)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := app.Variant(""); err != nil || v.Name != wantDefault {
			t.Errorf("%s: default variant %q, %v; want %s", name, v.Name, err, wantDefault)
		}
	}
	boruvka, _ := Lookup(cat, "boruvka")
	if v, err := boruvka.Variant("uf-generic"); err != nil || !v.Ablation {
		t.Errorf("uf-generic: %+v, %v", v, err)
	}
	if _, err := boruvka.Variant("kd-gk"); err == nil {
		t.Error("boruvka has no kd-gk")
	}
	if _, err := Lookup(cat, "nope"); err == nil {
		t.Error("unknown app should fail")
	}
}
