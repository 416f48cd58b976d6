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
	const budget = `{"Fast": 0, "Slow": 2}`
	for _, tc := range []struct {
		name, report string
		wantErr      []string // substrings of the error; nil means the gate passes
	}{
		{
			name:   "within budget",
			report: `{"benchmarks": [{"name": "Fast", "allocs_per_op": 0}, {"name": "Slow", "allocs_per_op": 2}]}`,
		},
		{
			name:    "over budget",
			report:  `{"benchmarks": [{"name": "Fast", "allocs_per_op": 1}, {"name": "Slow", "allocs_per_op": 2}]}`,
			wantErr: []string{"FAIL: Fast: 1 allocs/op exceeds budget 0"},
		},
		{
			name:    "budgeted row missing from the report",
			report:  `{"benchmarks": [{"name": "Fast", "allocs_per_op": 0}]}`,
			wantErr: []string{"not measured: Slow"},
		},
		{
			name:   "unbudgeted row ignored",
			report: `{"benchmarks": [{"name": "Fast", "allocs_per_op": 0}, {"name": "Slow", "allocs_per_op": 1}, {"name": "Other", "allocs_per_op": 99}]}`,
		},
		{
			name:    "every failure reported",
			report:  `{"benchmarks": [{"name": "Slow", "allocs_per_op": 3}]}`,
			wantErr: []string{"FAIL: Slow: 3 allocs/op exceeds budget 2", "not measured: Fast"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{
				"-report", writeFile(t, "report.json", tc.report),
				"-budget", writeFile(t, "budget.json", budget),
			}, &out)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !strings.Contains(out.String(), "2 budgeted benchmarks within budget") {
					t.Errorf("output = %q", out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("run passed, want an error with %q", tc.wantErr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q lacks %q", err, want)
				}
			}
		})
	}
}

func TestRunUnreadableReport(t *testing.T) {
	err := run([]string{"-report", filepath.Join(t.TempDir(), "absent.json")}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("run with no report passed")
	}
}
