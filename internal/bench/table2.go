package bench

import (
	"fmt"
	"strings"
	"time"

	"commlat/internal/adt/intset"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

// Table2Row is one line of Table 2: a conflict-detection scheme with its
// abort ratio and run time on the distinct-elements and the
// equivalence-classes inputs of the set microbenchmark.
type Table2Row struct {
	Scheme           string
	DistinctAborts   float64 // abort ratio, 0..1
	DistinctSeconds  float64
	RepeatedAborts   float64
	RepeatedSeconds  float64
	DistinctElements []int64 // final set contents (for validation); nil in reports

	// DistinctTele and RepeatedTele hold the detector's telemetry
	// snapshot for each input — work counters plus per-method-pair (or
	// per-mode) conflict attribution — for schemes backed by an
	// instrumented detector (nil otherwise).
	DistinctTele *telemetry.DetectorSnapshot
	RepeatedTele *telemetry.DetectorSnapshot
}

// telemetried is implemented by schemes backed by an instrumented
// detector (gatekeeper or lock manager).
type telemetried interface {
	Telemetry() *telemetry.Detector
}

func captureTele(s intset.Set) *telemetry.DetectorSnapshot {
	if ts, ok := s.(telemetried); ok {
		snap := ts.Telemetry().Snapshot()
		return &snap
	}
	return nil
}

// Table2Config sizes the set microbenchmark. The paper runs 1M operations
// on 4 threads with 10 equivalence classes. Extended adds two rows beyond
// the paper: the liberal guarded-lock scheme (footnote 6, implementing
// figure 2 with locks) and the object-STM set (the §4.3 lattice point FC).
type Table2Config struct {
	Ops      int
	Classes  int
	Threads  int
	Seed     int64
	Extended bool
}

// DefaultTable2 is a laptop-scaled configuration.
func DefaultTable2() Table2Config {
	return Table2Config{Ops: 100_000, Classes: 10, Threads: 4, Seed: 1}
}

// Scheme is one conflict-detection scheme of the set microbenchmark: a
// row of Table 2 and the constructor of a fresh guarded set under it.
type Scheme struct {
	Name string
	// Extended marks a row beyond the paper's table (Table2Config.Extended).
	Extended bool
	New      func() intset.Set
}

// Table2Schemes lists the microbenchmark's schemes. The paper's four
// come in lattice order: the ⊥ global lock, exclusive element locks,
// read/write element locks (figure 3) and the forward gatekeeper
// (figure 2); the extension rows are liberal guarded locks and the
// object-STM baseline.
func Table2Schemes() []Scheme {
	return []Scheme{
		{"Global Lock", false, func() intset.Set { return intset.NewGlobalLock(intset.NewHashRep()) }},
		{"Abs. Lock (Ex.)", false, func() intset.Set { return intset.NewExclusiveLocked(intset.NewHashRep()) }},
		{"Abs. Lock (RW)", false, func() intset.Set { return intset.NewRWLocked(intset.NewHashRep()) }},
		{"Gatekeeper", false, func() intset.Set { return intset.NewGatekept(intset.NewHashRep()) }},
		{"Liberal (ext.)", true, func() intset.Set { return intset.NewLiberalLocked(intset.NewHashRep()) }},
		{"STM (ext.)", true, func() intset.Set { return intset.NewSTM(1024) }},
	}
}

// RunSetMicro drives one scheme over one operation stream with an
// overlap window of `threads` concurrently live transactions: each
// operation runs in its own transaction, which stays open until the
// window is full and the oldest commits. The window models `threads`
// hardware threads each holding one in-flight transaction, so contention
// (the Abort Ratio column) is measured deterministically even on a
// single-CPU host; elapsed time measures the scheme's total work
// including retried operations. On conflict the oldest transaction
// commits (making progress) and the operation retries.
func RunSetMicro(s intset.Set, ops []workload.SetOp, threads int) engine.Stats {
	var aborts uint64
	start := time.Now()
	open := make([]*engine.Tx, 0, threads)
	commitOldest := func() {
		open[0].Commit()
		open = open[1:]
	}
	for _, op := range ops {
		for {
			tx := engine.NewTx()
			var err error
			if op.Add {
				_, err = s.Add(tx, op.X)
			} else {
				_, err = s.Contains(tx, op.X)
			}
			if err == nil {
				open = append(open, tx)
				if len(open) == threads {
					commitOldest()
				}
				break
			}
			tx.Abort()
			aborts++
			if len(open) > 0 {
				commitOldest()
			}
		}
	}
	for _, tx := range open {
		tx.Commit()
	}
	return engine.Stats{Committed: uint64(len(ops)), Aborts: aborts, Elapsed: time.Since(start)}
}

// Table2 reproduces Table 2: for each scheme, abort ratio and time on
// the distinct input (every element unique — locks never contend) and on
// the k-classes input (repeats expose precision differences: gatekeeping
// lets non-mutating adds share, read/write locks let reads share,
// exclusive locks serialize same-element access, the global lock
// serializes everything).
func Table2(cfg Table2Config) []Table2Row {
	distinct := workload.SetOpsDistinct(cfg.Ops, cfg.Seed)
	repeated := workload.SetOpsClasses(cfg.Ops, cfg.Classes, cfg.Seed)
	var rows []Table2Row
	for _, sc := range Table2Schemes() {
		if sc.Extended && !cfg.Extended {
			continue
		}
		sd := sc.New()
		statsD := RunSetMicro(sd, distinct, cfg.Threads)
		sr := sc.New()
		statsR := RunSetMicro(sr, repeated, cfg.Threads)
		rows = append(rows, Table2Row{
			Scheme:          sc.Name,
			DistinctAborts:  statsD.AbortRatio(),
			DistinctSeconds: statsD.Elapsed.Seconds(),
			RepeatedAborts:  statsR.AbortRatio(),
			RepeatedSeconds: statsR.Elapsed.Seconds(),
			DistinctTele:    captureTele(sd),
			RepeatedTele:    captureTele(sr),
		})
	}
	return rows
}

// FormatTable2Stats renders the detector telemetry collected by Table2
// for the schemes that expose it — one line per scheme and input,
// showing the checker workload, how the disequality index fared (probes
// vs. collisions vs. full-scan fallbacks), and which method (or mode)
// pair dominated the conflicts with its share of the scheme's aborts.
func FormatTable2Stats(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-9s %12s %12s %12s %12s %12s %12s  %s\n",
		"Detector stats", "Input", "Invocations", "Checks", "Conflicts", "Probes", "Collisions", "Fallbacks", "Top conflict pair")
	line := func(scheme, input string, st *telemetry.DetectorSnapshot) {
		top := "-"
		if pair, share, ok := st.TopPair(); ok {
			top = fmt.Sprintf("%s (%.0f%%)", pair, share)
		}
		fmt.Fprintf(&b, "%-18s %-9s %12d %12d %12d %12d %12d %12d  %s\n",
			scheme, input, st.Invocations, st.Checks, st.Conflicts, st.Probes, st.Collisions, st.FallbackScans, top)
	}
	for _, r := range rows {
		if r.DistinctTele != nil {
			line(r.Scheme, "distinct", r.DistinctTele)
		}
		if r.RepeatedTele != nil {
			line(r.Scheme, "repeats", r.RepeatedTele)
		}
	}
	return b.String()
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %22s %22s\n", "", "(a) Distinct", "(b) Repeats")
	fmt.Fprintf(&b, "%-18s %10s %11s %10s %11s\n", "Program", "Abort %", "Time (s)", "Abort %", "Time (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.2f %11.3f %10.2f %11.3f\n",
			r.Scheme, r.DistinctAborts*100, r.DistinctSeconds, r.RepeatedAborts*100, r.RepeatedSeconds)
	}
	return b.String()
}
