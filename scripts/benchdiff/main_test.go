package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	// Tolerance 15% plus a 25 ns floor: A's limit is 1175 ns/op, B's 140.
	const base = `{"benchmarks": [{"name": "A", "ns_per_op": 1000}, {"name": "B", "ns_per_op": 100}]}`
	for _, tc := range []struct {
		name, fresh string
		args        []string
		wantErr     []string // substrings of the error; nil means the gate passes
		wantOut     []string
	}{
		{
			name:    "within tolerance",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1100}, {"name": "B", "ns_per_op": 139}]}`,
			wantOut: []string{"ok   A", "ok   B", "2 benchmarks within 15% of baseline"},
		},
		{
			name:    "regression over the threshold",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1200}, {"name": "B", "ns_per_op": 100}]}`,
			wantErr: []string{"FAIL: A: 1200.0 ns/op vs baseline 1000.0 ns/op (+20.0%, limit 1175.0)"},
			wantOut: []string{"ok   B"},
		},
		{
			name:    "tighter tolerance flag",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1100}, {"name": "B", "ns_per_op": 100}]}`,
			args:    []string{"-tolerance", "0.05", "-floor", "0"},
			wantErr: []string{"FAIL: A:"},
		},
		{
			name:    "baseline row missing from the fresh report",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1000}]}`,
			wantErr: []string{"FAIL: B: in baseline (100.0 ns/op) but missing from fresh report"},
		},
		{
			name:    "missing row allowed",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1000}]}`,
			args:    []string{"-allow-missing"},
			wantOut: []string{"note: baseline benchmark B (100.0 ns/op) not in fresh report, tolerated by -allow-missing"},
		},
		{
			name:    "new benchmark never fails",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1000}, {"name": "B", "ns_per_op": 100}, {"name": "C", "ns_per_op": 5}]}`,
			wantOut: []string{"new benchmark C (5.0 ns/op), no baseline"},
		},
		{
			name:    "geomean line",
			fresh:   `{"benchmarks": [{"name": "A", "ns_per_op": 1100}, {"name": "B", "ns_per_op": 110}]}`,
			wantOut: []string{"geomean fresh/baseline over 2 shared benchmarks: 1.100 (+10.0%)"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{
				"-base", writeFile(t, "base.json", base),
				"-fresh", writeFile(t, "fresh.json", tc.fresh),
			}, tc.args...)
			err := run(args, &out)
			if tc.wantErr == nil && err != nil {
				t.Fatalf("run: %v", err)
			}
			if tc.wantErr != nil && err == nil {
				t.Fatalf("run passed, want an error with %q", tc.wantErr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q lacks %q", err, want)
				}
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunUnreadableBaseline(t *testing.T) {
	err := run([]string{"-base", filepath.Join(t.TempDir(), "absent.json")}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("run with no baseline passed")
	}
}
