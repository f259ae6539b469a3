// Cost-based planner benchmarks: the same multi-way join evaluated with the
// planner (join reordering + Yannakakis semi-join reduction) against the
// syntactic left-deep order (Options{NoPlan: true}), on two workloads — a
// TPC-H 4-way join whose only selective input sits in the worst syntactic
// position, and an adversarial 4-way self-join (length-3 paths in a random
// graph, anchored at one endpoint). This is the acceptance benchmark for the
// planner (target: ≥5× on both); timings are exported to BENCH_planner.json
// via the BENCH_PLANNER_JSON env var. PLANNER_BENCH_SF scales both workloads
// (default 0.05, the CI smoke size; the recorded run uses 1).
package engine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/testdb"
	"repro/internal/tpch"
)

func plannerBenchSF() float64 {
	if s := os.Getenv("PLANNER_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

func eqAttrs(l, r string) ra.Expr {
	return &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: l}, R: &ra.AttrRef{Name: r}}
}

// tpchPlannerQuery asks for pairs of orders by the same customer, for the
// ~20 filtered customers, with the customer's nation: orders ⋈ orders ⋈
// σ(customer) ⋈ nation, the selective input in the worst syntactic
// position. The unplanned left-deep evaluation materializes every order
// pair of every customer (Σ n_i² ≈ 16M rows at SF 1, an order of magnitude
// past the largest base relation) before the filter applies; the planner
// semi-join reduces both orders scans down to the filtered customers'
// orders first, so its joins never exceed the final result size.
func tpchPlannerQuery() ra.Node {
	return &ra.Join{
		L: &ra.Join{
			L: &ra.Join{
				L:    &ra.Rename{As: "o1", In: &ra.Rel{Name: "orders"}},
				R:    &ra.Rename{As: "o2", In: &ra.Rel{Name: "orders"}},
				Cond: eqAttrs("o1.o_custkey", "o2.o_custkey"),
			},
			R: &ra.Select{
				Pred: &ra.Cmp{Op: ra.LT, L: &ra.AttrRef{Name: "c_custkey"}, R: &ra.Const{Val: relation.Int(20)}},
				In:   &ra.Rel{Name: "customer"},
			},
			Cond: eqAttrs("o1.o_custkey", "c_custkey"),
		},
		R:    &ra.Rel{Name: "nation"},
		Cond: eqAttrs("c_nationkey", "n_nationkey"),
	}
}

// selfJoinDB is a random directed graph E(x, y) with out-degree 6, sized by
// the scale factor.
func selfJoinDB(sf float64) *relation.Database {
	n := int(600 + 2400*sf)
	const deg = 6
	db := relation.NewDatabase()
	db.CreateRelation("E", relation.NewSchema(
		relation.Attr("x", relation.KindInt),
		relation.Attr("y", relation.KindInt)))
	rng := rand.New(rand.NewSource(11))
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			db.Insert("E", relation.NewTuple(relation.Int(int64(u)), relation.Int(int64(rng.Intn(n)))))
		}
	}
	return db
}

// selfJoinQuery is the adversarial 4-way self-join: length-3 paths
// e1→e2→e3→e4 whose final edge ends at node 0. Unplanned, the path join
// fans out by the graph degree at every step; planned, the anchor filter
// propagates backward through the Yannakakis reduction and every join stays
// near the final result size.
func selfJoinQuery() ra.Node {
	e := func(i int) ra.Node { return &ra.Rename{As: fmt.Sprintf("e%d", i), In: &ra.Rel{Name: "E"}} }
	q := ra.Node(&ra.Join{L: e(1), R: e(2), Cond: eqAttrs("e1.y", "e2.x")})
	q = &ra.Join{L: q, R: e(3), Cond: eqAttrs("e2.y", "e3.x")}
	q = &ra.Join{L: q, R: e(4), Cond: eqAttrs("e3.y", "e4.x")}
	return &ra.Select{
		Pred: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "e4.y"}, R: &ra.Const{Val: relation.Int(0)}},
		In:   q,
	}
}

type plannerBenchRow struct {
	Workload      string  `json:"workload"`
	SF            float64 `json:"sf"`
	ResultRows    int     `json:"result_rows"`
	PlannedNsOp   float64 `json:"planned_ns_per_op"`
	UnplannedNsOp float64 `json:"unplanned_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

func benchKeys(r *engine.Rel[bool]) map[string]bool {
	m := make(map[string]bool, r.Len())
	for _, t := range r.Tuples {
		m[testdb.TupleKey(t)] = true
	}
	return m
}

func BenchmarkPlanner(b *testing.B) {
	sf := plannerBenchSF()
	// The unplanned baselines materialize intermediates proportional to
	// |lineitem| (resp. the path-3 count), far past the default budget the
	// planner keeps plans under; the benchmark measures them anyway.
	savedMax := engine.MaxIntermediateRows
	engine.MaxIntermediateRows = 200_000_000
	b.Cleanup(func() { engine.MaxIntermediateRows = savedMax })

	workloads := []struct {
		name string
		db   *relation.Database
		q    ra.Node
	}{
		{"tpch-4way", tpch.Generate(sf, 1), tpchPlannerQuery()},
		{"selfjoin-path4", selfJoinDB(sf), selfJoinQuery()},
	}
	var rows []*plannerBenchRow
	for _, w := range workloads {
		row := &plannerBenchRow{Workload: w.name, SF: sf}
		rows = append(rows, row)
		var planned, unplanned map[string]bool
		b.Run(w.name+"/planned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := engine.RunOpts(engine.Set, w.q, w.db, nil, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				planned = benchKeys(res)
			}
			row.PlannedNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		b.Run(w.name+"/unplanned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := engine.RunOpts(engine.Set, w.q, w.db, nil, engine.Options{NoPlan: true})
				if err != nil {
					b.Fatal(err)
				}
				unplanned = benchKeys(res)
			}
			row.UnplannedNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		// Equivalence guard: the timed runs must have produced identical
		// results, or the speedup is meaningless. Skipped when -bench
		// filtering ran only one side.
		if planned != nil && unplanned != nil {
			if len(planned) != len(unplanned) {
				b.Fatalf("%s: planned (%d rows) and unplanned (%d rows) results differ",
					w.name, len(planned), len(unplanned))
			}
			for k := range planned {
				if !unplanned[k] {
					b.Fatalf("%s: planned result contains a tuple the unplanned run lacks", w.name)
				}
			}
			row.ResultRows = len(planned)
		}
		if row.PlannedNsOp > 0 && row.UnplannedNsOp > 0 {
			row.Speedup = row.UnplannedNsOp / row.PlannedNsOp
		}
	}
	if path := os.Getenv("BENCH_PLANNER_JSON"); path != "" {
		out := map[string]any{
			"workloads": rows,
			"note":      "planned = default Options (cost-based reorder + Yannakakis); unplanned = Options{NoPlan: true} syntactic left-deep order; both post-Optimize",
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
