// Delta-incremental evaluation benchmarks: the course-workload sequential
// shrink loop — remove one tuple per step, re-check Q1 − Q2 after every
// removal — evaluated with the retained-state PreparedDiff (one deletion
// ApplyDelta + Commit per step) against from-scratch re-evaluation (the live
// subinstance materialized and both queries evaluated on it every step).
// This is the acceptance benchmark for the delta subsystem (target: ≥5×);
// timings are exported to BENCH_delta.json via the BENCH_DELTA_JSON env var.
package engine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
)

// shrinkWorkload is the delta benchmark's input: the |D|=5000 course
// instance (the q4-vs-q6 disagreeing pair, both containing difference
// operators, comes from course.Questions) and a fixed pseudo-random
// deletion order.
func shrinkWorkload() (db *relation.Database, order []relation.TupleID) {
	db = course.GenerateDB(5000, 7)
	all := db.AllIDs()
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(len(all))
	order = make([]relation.TupleID, len(all))
	for i, j := range perm {
		order[i] = all[j]
	}
	return db, order
}

type deltaBenchRow struct {
	Steps           int     `json:"steps"`
	PreparedNsPerOp float64 `json:"prepared_ns_per_op"`
	FreshNsPerOp    float64 `json:"fresh_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

var deltaBenchRows = map[int]*deltaBenchRow{}

func deltaBenchRowFor(steps int) *deltaBenchRow {
	if r, ok := deltaBenchRows[steps]; ok {
		return r
	}
	r := &deltaBenchRow{Steps: steps}
	deltaBenchRows[steps] = r
	return r
}

var deltaShrinkSteps = []int{64, 256, 1024}

// freshDiffs evaluates Q1 and Q2 from scratch on the subinstance of db kept
// by keep and returns both differences.
func freshDiffs(b *testing.B, q1, q2 ra.Node, db *relation.Database, keep map[relation.TupleID]bool) (*relation.Relation, *relation.Relation) {
	sub := db.Subinstance(keep)
	r1, err := engine.Eval(q1, sub, nil)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := engine.Eval(q2, sub, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r1.SetDiff(r2), r2.SetDiff(r1)
}

// BenchmarkPreparedDiff times the shrink loop on the retained state: one
// PrepareDiff, then per step one single-tuple deletion ApplyDelta plus Commit.
func BenchmarkPreparedDiff(b *testing.B) {
	db, order := shrinkWorkload()
	q1, q2 := course.Questions()[3].Correct, course.Questions()[5].Correct
	// Equivalence guard before timing: the delta differences must match a
	// from-scratch evaluation of the same kept set.
	p, err := engine.PrepareDiff(q1, q2, db, nil, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	kept := map[relation.TupleID]bool{}
	for _, id := range db.AllIDs() {
		kept[id] = true
	}
	for i := 0; i < 256; i++ {
		kept[order[i]] = false
		res, err := p.ApplyDelta(order[i:i+1], nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Commit(); err != nil {
			b.Fatal(err)
		}
		if i%32 != 0 {
			continue
		}
		want12, want21 := freshDiffs(b, q1, q2, db, kept)
		got12, got21 := p.Diffs()
		if !got12.SetEqual(want12) || !got21.SetEqual(want21) {
			b.Fatalf("step %d: delta and from-scratch differences disagree", i)
		}
	}
	for _, steps := range deltaShrinkSteps {
		row := deltaBenchRowFor(steps)
		b.Run(fmt.Sprintf("shrink/steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := engine.PrepareDiff(q1, q2, db, nil, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					res, err := p.ApplyDelta(order[s:s+1], nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := res.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
			row.PreparedNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
}

// BenchmarkApplyDelta times the bidirectional update path: per step one
// single-tuple update (delete + reinsert with a changed attribute) applied
// through ApplyDelta + Commit on retained state. Because Commit folds
// insertions into the underlying database, each iteration prepares over a
// private clone.
func BenchmarkApplyDelta(b *testing.B) {
	db, order := shrinkWorkload()
	q1, q2 := course.Questions()[3].Correct, course.Questions()[5].Correct
	const steps = 256
	tuples := make([]relation.Tuple, steps)
	rels := make([]string, steps)
	for s := 0; s < steps; s++ {
		rel, t, ok := db.Lookup(order[s])
		if !ok {
			b.Fatalf("workload id %d not in instance", order[s])
		}
		nt := append(relation.Tuple{}, t...)
		if len(nt) > 3 {
			nt[3] = relation.Int(int64(40 + s%61))
		}
		rels[s], tuples[s] = rel, nt
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := engine.PrepareDiff(q1, q2, db.Clone(), nil, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			res, err := p.ApplyDelta(order[s:s+1], []engine.Insert{{Rel: rels[s], Tuple: tuples[s]}})
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkShrinkFromScratch times the same shrink loop without retained
// state: every step materializes the current kept subinstance and evaluates
// Q1 and Q2 on it from scratch.
func BenchmarkShrinkFromScratch(b *testing.B) {
	db, order := shrinkWorkload()
	q1, q2 := course.Questions()[3].Correct, course.Questions()[5].Correct
	for _, steps := range deltaShrinkSteps {
		row := deltaBenchRowFor(steps)
		b.Run(fmt.Sprintf("shrink/steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kept := make(map[relation.TupleID]bool, db.Size())
				for _, id := range db.AllIDs() {
					kept[id] = true
				}
				for s := 0; s < steps; s++ {
					kept[order[s]] = false
					freshDiffs(b, q1, q2, db, kept)
				}
			}
			row.FreshNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if path := os.Getenv("BENCH_DELTA_JSON"); path != "" {
		var rows []deltaBenchRow
		for _, steps := range deltaShrinkSteps {
			r := *deltaBenchRows[steps]
			if r.PreparedNsPerOp > 0 {
				r.Speedup = r.FreshNsPerOp / r.PreparedNsPerOp
			}
			rows = append(rows, r)
		}
		out := map[string]any{
			"workload": "course q4-vs-q6 sequential shrink loop, |D|=5000, one deletion per step",
			"results":  rows,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
