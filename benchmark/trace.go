package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Spans of one work item
// share Item; Parent is the span that was open when this one began.
//
// A span holds no pointer, so the garbage collector never scans the
// millions of them a pass records: the name is an index into spanNames.
type span struct {
	Start  int64
	End    int64
	Item   int64
	ID     int32
	Parent int32 // -1 for a root
	Name   spanName
}

type spanName uint8

// The layer boundaries the traced pass knows. adt* are the guarded calls
// the ADT wrappers add under a body.
const (
	spRun     spanName = iota // the whole traced solve
	spSeed                    // bulk-loading the ADT inside the solve (cluster)
	spItem                    // one work item: begin, body, commit, recycle
	spBegin                   // engine.GetTx
	spBody                    // the app's exported step
	spCommit                  // tx.Commit, release hooks included
	spRecycle                 // engine.PutTx
	spPush                    // the push callback
	adtAdd
	adtRemove
	adtContains
	adtNearest
	adtFind
	adtUnion
	adtAddBatch
)

var spanNames = [...]string{"run", "seed", "item", "begin", "body", "commit", "recycle", "push",
	"adt.add", "adt.remove", "adt.contains", "adt.nearest", "adt.find", "adt.union", "adt.add_batch"}

// recorder keeps spans in a preallocated slice; the traced pass is
// serial, so the open spans form a stack and begin/end need no lock.
type recorder struct {
	base  time.Time
	spans []span
	open  []int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name spanName, item int64) { r.beginAt(name, item, r.now()) }

func (r *recorder) beginAt(name spanName, item int64, start int64) {
	id := int32(len(r.spans))
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, id)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Item: item, Start: start})
}

// first opens a span that starts when its parent did, and then closes
// the innermost span and opens a sibling at the same instant: a
// sequence of calls costs one clock reading per boundary and leaves no
// gap for the parent's self time to absorb.
func (r *recorder) first(name spanName, item int64) {
	r.beginAt(name, item, r.spans[r.open[len(r.open)-1]].Start)
}

func (r *recorder) then(name spanName, item int64) { r.beginAt(name, item, r.end()) }

// end closes the innermost open span and returns its end time.
func (r *recorder) end() int64 {
	end := r.now()
	r.endAt(end)
	return end
}

// endAt closes the innermost open span at a time already taken.
func (r *recorder) endAt(end int64) {
	n := len(r.open) - 1
	r.spans[r.open[n]].End = end
	r.open = r.open[:n]
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	count int
	total int64     // summed duration
	durs  []float64 // each duration; kept for body spans only, for their percentile
}

// totals sums the spans' durations by name. Children of one parent never
// overlap, because the recorder is a stack, so a layer's self time is its
// total minus its children's totals; the budget subtracts what it needs.
func (r *recorder) totals() map[string]*spanTotals {
	var byName [len(spanNames)]spanTotals
	for _, s := range r.spans {
		t := &byName[s.Name]
		d := s.End - s.Start
		t.count++
		t.total += d
		if s.Name == spBody {
			t.durs = append(t.durs, float64(d))
		}
	}
	out := map[string]*spanTotals{}
	for i := range byName {
		if byName[i].count > 0 {
			out[spanNames[i]] = &byName[i]
		}
	}
	return out
}

// write dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Item   int64  `json:"item"`
	}
	out := make([]jsonSpan, len(r.spans))
	for i, s := range r.spans {
		out[i] = jsonSpan{spanNames[s.Name], s.Start, s.End, s.ID, s.Parent, s.Item}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
