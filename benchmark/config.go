package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed workloads.json
var workloadsJSON []byte

// sizes holds every input dimension a workload can have; an app reads
// the fields it knows.
type sizes struct {
	A      int `json:"a,omitempty"`      // preflow: GENRMF frame side
	B      int `json:"b,omitempty"`      // preflow: GENRMF frame count
	Parts  int `json:"parts,omitempty"`  // preflow: partitions of the part spec
	Nets   int `json:"nets,omitempty"`   // preflow: nets solved per repetition (default 1)
	Mesh   int `json:"mesh,omitempty"`   // boruvka: mesh side
	Points int `json:"points,omitempty"` // cluster: input points
	Ops    int `json:"ops,omitempty"`    // set: operations in the stream
	Keys   int `json:"keys,omitempty"`   // set-churn: distinct keys
	Batch  int `json:"batch,omitempty"`  // set-batched: admission batch size
}

// reps is the least number of repetitions each mode runs, whatever the
// time budget; the budget adds more.
type reps struct {
	P1      int `json:"p1"`
	P2      int `json:"p2"`
	Obs     int `json:"obs"`
	Seq     int `json:"seq"`
	Traced  int `json:"traced"`
	Lattice int `json:"lattice"`
}

// workloadCfg is one entry of workloads.json. Adding a scenario is a new
// entry here, not a Go function.
type workloadCfg struct {
	Name     string `json:"name"`
	App      string `json:"app"`      // preflow, boruvka, cluster, set-stream, set-churn, set-batched
	Detector string `json:"detector"` // constructor key the app understands
	Size     sizes  `json:"size"`
	Profile  sizes  `json:"profile"` // ParaMeter profile scale
	Quick    sizes  `json:"quick"`   // smoke-test scale, also its profile scale
	// RefItems is the amount of work times are normalised to: the
	// 1-worker commit count of seed 1 at Size, frozen when the size was
	// chosen. A reported solve time is seconds per RefItems items.
	RefItems int      `json:"ref_items"`
	Reps     reps     `json:"reps"`
	Lattice  []string `json:"lattice"` // sibling detector keys, traced pass only
	Disabled bool     `json:"disabled"`
	Why      string   `json:"why"`
}

type suite struct {
	Workloads []workloadCfg `json:"workloads"`
}

// parseSuite decodes a workload table. An unknown field is an error, so a
// typo in the table cannot silently fall back to a default.
func parseSuite(table []byte) (*suite, error) {
	dec := json.NewDecoder(bytes.NewReader(table))
	dec.DisallowUnknownFields()
	var s suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if w.Name == "" || seen[w.Name] {
			return nil, fmt.Errorf("workloads.json: missing or repeated name %q", w.Name)
		}
		seen[w.Name] = true
		if w.RefItems <= 0 || w.Why == "" {
			return nil, fmt.Errorf("workloads.json: %s: ref_items and why are required", w.Name)
		}
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("workloads.json: %s: %w", w.Name, err)
		}
	}
	return &s, nil
}

// enabled returns the workloads to run: the named one, or all that are
// not disabled.
func (s *suite) enabled(name string) ([]*workloadCfg, error) {
	var out []*workloadCfg
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if name == w.Name || (name == "" && !w.Disabled) {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workload named %q", name)
	}
	return out, nil
}
