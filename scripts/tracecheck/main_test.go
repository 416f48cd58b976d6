package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures were written by the exporters of the commit before the
// exported telemetry types became the schema (audit.json less the three
// always-zero keys that commit's AuditEntry still had), so they pin the
// JSON spellings from outside the types: a renamed tag makes the strict
// decode refuse the fixture's old key.
var fixtures = map[string]string{
	"":             "trace.jsonl",
	"-chrome":      "chrome.json",
	"-snapshot":    "snapshot.json",
	"-flight":      "flight.json",
	"-percentiles": "percentiles.json",
	"-audit":       "audit.json",
}

func TestGoldenFixturesAccepted(t *testing.T) {
	for mode, name := range fixtures {
		args := []string{filepath.Join("testdata", name)}
		if mode != "" {
			args = append([]string{mode}, args...)
		}
		var out bytes.Buffer
		if err := run(args, nil, &out); err != nil {
			t.Errorf("tracecheck %s %s: %v", mode, name, err)
		} else if !strings.HasPrefix(out.String(), "ok: ") {
			t.Errorf("tracecheck %s %s printed %q, want an ok: line", mode, name, out.String())
		}
	}
}

type obj = map[string]any

// row is element i of the array under field.
func row(d obj, field string, i int) obj { return d[field].([]any)[i].(obj) }

// load reads a fixture as a generic object; the JSONL trace becomes
// {"lines": [...]} so one mutator shape serves every document.
func load(t *testing.T, mode string) obj {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", fixtures[mode]))
	if err != nil {
		t.Fatal(err)
	}
	if mode == "" {
		raw = []byte(`{"lines":[` + strings.ReplaceAll(strings.TrimSpace(string(raw)), "\n", ",") + `]}`)
	}
	var d obj
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func encode(t *testing.T, mode string, d obj) []byte {
	t.Helper()
	if mode != "" {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, line := range d["lines"].([]any) {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSemanticRulesReject breaks one rule per case in an otherwise
// accepted fixture: what the types cannot say is still checked.
func TestSemanticRulesReject(t *testing.T) {
	cases := []struct {
		name, mode string
		mutate     func(d obj)
		want       string // substring of the failure
	}{
		{"unknown field", "-snapshot", func(d obj) { row(d, "detectors", 0)["bogus"] = 1 }, `unknown field "bogus"`},
		{"renamed tag", "-flight", func(d obj) { d["reclaimed"] = d["dropped"]; delete(d, "dropped") }, `unknown field "reclaimed"`},
		{"pair checks over total", "-snapshot", func(d obj) { row(row(d, "detectors", 0), "pairs", 0)["checks"] = 99 }, "pair checks 100 exceed total 3"},
		{"event without ts_ns", "", func(d obj) { delete(row(d, "lines", 1), "ts_ns") }, "line 2: missing ts_ns"},
		{"event timeline out of order", "", func(d obj) {
			l := d["lines"].([]any)
			l[0], l[1] = l[1], l[0]
		}, "out of order"},
		{"unknown event kind", "", func(d obj) { row(d, "lines", 0)["kind"] = "pause" }, `unknown kind "pause"`},
		{"conflict without detector", "", func(d obj) { delete(row(d, "lines", 2), "detector") }, "needs detector"},
		{"record without ts_ns", "-flight", func(d obj) { delete(row(d, "records", 0), "ts_ns") }, "records[0]: missing ts_ns"},
		{"record timeline out of order", "-flight", func(d obj) { row(d, "records", 1)["ts_ns"] = 1 }, "out of order"},
		{"unknown verdict", "-flight", func(d obj) { row(d, "records", 0)["verdict"] = "maybe" }, `unknown verdict "maybe"`},
		{"unknown stage", "-flight", func(d obj) { row(d, "records", 0)["stages"] = []any{"warmup"} }, `unknown stage "warmup"`},
		{"record epoch past document epoch", "-flight", func(d obj) { row(d, "records", 0)["epoch"] = 9 }, "past document epoch"},
		{"shard out of range", "-flight", func(d obj) { row(d, "records", 0)["shards"] = []any{64} }, "shard 64 out of range"},
		{"unknown latency stage", "-percentiles", func(d obj) { row(d, "stages", 0)["stage"] = "warmup" }, `unknown stage "warmup"`},
		{"bucket sum differs from count", "-percentiles", func(d obj) { row(d, "stages", 0)["count"] = 6 }, "bucket counts sum to 5, want 6"},
		{"percentiles not monotone", "-percentiles", func(d obj) { row(d, "stages", 0)["p50_ns"] = 1e9 }, "not monotone"},
		{"entry without ts_ns", "-audit", func(d obj) { delete(row(d, "entries", 0), "ts_ns") }, "entries[0]: missing ts_ns"},
		{"unknown reason", "-audit", func(d obj) { row(d, "entries", 0)["reason"] = "pinned" }, `unknown reason "pinned"`},
		{"moved inconsistent with rungs", "-audit", func(d obj) { row(d, "entries", 1)["moved"] = true }, "moved=true but rung 1 -> 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := load(t, tc.mode)
			tc.mutate(d)
			args := []string{"-"}
			if tc.mode != "" {
				args = []string{tc.mode}
			}
			var out bytes.Buffer
			err := run(args, bytes.NewReader(encode(t, tc.mode, d)), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("printed %q on a rejected document", out.String())
			}
		})
	}
}

func TestEmptyAndUnreadableInput(t *testing.T) {
	if err := run(nil, strings.NewReader(""), &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "input is empty") {
		t.Fatalf("empty stdin: err = %v", err)
	}
	if err := run([]string{"-flight", filepath.Join(t.TempDir(), "missing.json")}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
}
