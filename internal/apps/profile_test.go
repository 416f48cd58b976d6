package apps

import (
	"fmt"
	"testing"
)

// Every variant's ParaMeter profile on one small input is pinned. A
// profile is deterministic (rounds run in one goroutine in item order),
// so a changed detector that grants or refuses one acquisition
// differently from before moves one of the three numbers; a detector
// rewrite that claims the same conflict behaviour must keep them all.
func TestCatalogueProfilesArePinned(t *testing.T) {
	want := map[string]string{
		"part":       "454/368/1088",
		"ex":         "426/240/379",
		"ml":         "431/234/474",
		"uf-ml":      "255/20/1664",
		"uf-gk":      "255/19/1539",
		"uf-generic": "255/19/1539",
		"kd-ml":      "299/141/14218",
		"kd-gk":      "299/29/1207",
	}
	seen := 0
	for _, app := range Catalogue(Sizes{RMFa: 3, RMFb: 3, Mesh: 16, Points: 300, Parts: 8, Seed: 1}) {
		for _, v := range app.Variants {
			seen++
			p, err := v.Profile()
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Key, v.Name, err)
			}
			got := fmt.Sprintf("%d/%d/%d", p.Work, p.CriticalPath, p.Conflicts)
			if got != want[v.Name] {
				t.Errorf("%s/%s: work/critical path/conflicts = %s, want %s", app.Key, v.Name, got, want[v.Name])
			}
		}
	}
	if seen != len(want) {
		t.Errorf("profiled %d variants, want %d", seen, len(want))
	}
}
