package engine

import (
	"strings"
	"testing"

	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// evalUnoptimized evaluates without the Optimize pass, as the ground truth.
func evalUnoptimized(q ra.Node, db *relation.Database) (*relation.Relation, error) {
	r, err := RunOpts(Set, q, db, nil, Options{NoOptimize: true})
	if err != nil {
		return nil, err
	}
	return r.Relation("res"), nil
}

func TestOptimizePreservesSemantics(t *testing.T) {
	db := testdb.Example1DB()
	queries := []string{
		"select[dept = 'CS'](Student join Registration)",
		"project[name, major](select[dept = 'CS' and grade >= 90](Student join Registration))",
		"select[s.name = r1.name and r1.dept = 'CS'](rename[s](Student) cross rename[r1](Registration))",
		"select[s.name = r1.name and s.name = r2.name and r1.course <> r2.course and r1.dept = 'CS' and r2.dept = 'CS'](rename[s](Student) cross rename[r1](Registration) cross rename[r2](Registration))",
		"project[name](select[grade >= 90](Student join Registration)) union project[name](select[dept = 'ECON'](Registration))",
		"project[name](Student) diff project[name](select[dept = 'ECON'](Registration))",
		"select[grade > 80](select[dept = 'CS'](Registration))",
		"select[name = 'Mary'](project[name, major](Student join Registration))",
		"select[avg_grade >= 90](groupby[name; avg(grade) -> avg_grade](Registration))",
		"select[major = 'CS'](rename[s](Student))",
	}
	cat := Catalog{DB: db}
	for _, src := range queries {
		q := raparser.MustParse(src)
		want, err := evalUnoptimized(q, db)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		opt := Optimize(q, cat)
		got, err := evalUnoptimized(opt, db)
		if err != nil {
			t.Fatalf("%s (optimized %s): %v", src, opt, err)
		}
		if !want.SetEqual(got) {
			t.Errorf("optimization changed results for %s\noptimized: %s\nwant %v\ngot %v",
				src, opt, want.Sorted().Tuples, got.Sorted().Tuples)
		}
	}
}

func TestOptimizePreservesProvenance(t *testing.T) {
	// Provenance annotations must be logically equivalent before and after
	// optimization: check by evaluating both on sampled subinstances.
	db := testdb.Example1DB()
	queries := []string{
		"project[name, major](select[dept = 'CS'](Student join Registration))",
		"select[s.name = r1.name and r1.dept = 'CS'](rename[s](Student) cross rename[r1](Registration))",
		"project[name](Student) diff project[name](select[dept = 'ECON'](Registration))",
	}
	for _, src := range queries {
		q := raparser.MustParse(src)
		ann, err := EvalProv(q, db, nil) // optimized internally
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for mask := 0; mask < 32; mask++ {
			keep := map[relation.TupleID]bool{1: true, 2: mask&16 != 0, 3: true}
			ids := map[int]bool{1: true, 3: true}
			if mask&16 != 0 {
				ids[2] = true
			}
			for b := 0; b < 4; b++ {
				if mask&(1<<b) != 0 {
					keep[relation.TupleID(4+b)] = true
					ids[4+b] = true
				}
			}
			sub := db.Subinstance(keep)
			res, err := Eval(q, sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			inRes := map[string]bool{}
			for _, tup := range res.Tuples {
				inRes[testdb.TupleKey(tup)] = true
			}
			for i, tup := range ann.Tuples {
				got := ann.Anns[i].Eval(func(id int) bool { return ids[id] })
				if got != inRes[testdb.TupleKey(tup)] {
					t.Fatalf("%s: provenance wrong for %v on %v", src, tup, ids)
				}
			}
		}
	}
}

func TestOptimizePushesThroughProject(t *testing.T) {
	db := testdb.Example1DB()
	cat := Catalog{DB: db}
	q := raparser.MustParse("select[name = 'Mary'](project[name, major](Student))")
	opt := Optimize(q, cat)
	// The selection must end up below the projection.
	p, ok := opt.(*ra.Project)
	if !ok {
		t.Fatalf("top should be projection, got %T (%s)", opt, opt)
	}
	if _, ok := p.In.(*ra.Select); !ok {
		t.Errorf("selection not pushed below projection: %s", opt)
	}
}

func TestOptimizeSplitsJoinConjuncts(t *testing.T) {
	db := testdb.Example1DB()
	cat := Catalog{DB: db}
	q := raparser.MustParse(
		"select[s.name = r.name and r.dept = 'CS' and s.major = 'CS'](rename[s](Student) cross rename[r](Registration))")
	opt := Optimize(q, cat)
	// No Select should remain at the top: all conjuncts distribute.
	if _, ok := opt.(*ra.Select); ok {
		t.Errorf("selection stayed at top: %s", opt)
	}
	// Both sides should have received their one-sided filters.
	s := opt.String()
	if !strings.Contains(s, "r.dept = 'CS'") || !strings.Contains(s, "s.major = 'CS'") {
		t.Errorf("one-sided conjuncts not pushed: %s", s)
	}
}

func TestEquiJoinPlanExtraction(t *testing.T) {
	l := relation.NewSchema(relation.Attr("a.x", relation.KindInt), relation.Attr("a.y", relation.KindInt))
	r := relation.NewSchema(relation.Attr("b.x", relation.KindInt), relation.Attr("b.z", relation.KindInt))
	cond := raparser.MustParse("select[a.x = b.x and a.y < b.z](R)").(*ra.Select).Pred
	lk, rk, res := EquiJoinPlan(cond, l, r)
	if len(lk) != 1 || lk[0] != 0 || len(rk) != 1 || rk[0] != 0 {
		t.Errorf("keys = %v %v", lk, rk)
	}
	if res == nil {
		t.Error("residual missing")
	}
	// Mirrored orientation.
	cond2 := raparser.MustParse("select[b.x = a.x](R)").(*ra.Select).Pred
	lk2, rk2, res2 := EquiJoinPlan(cond2, l, r)
	if len(lk2) != 1 || res2 != nil {
		t.Errorf("mirrored extraction failed: %v %v %v", lk2, rk2, res2)
	}
}

func TestRowBudget(t *testing.T) {
	old := MaxIntermediateRows
	MaxIntermediateRows = 100
	defer func() { MaxIntermediateRows = old }()
	db := testdb.Example1DB()
	// 3 × 8 × 8 = 192 > 100 rows.
	q := raparser.MustParse("rename[a](Student) cross rename[b](Registration) cross rename[c](Registration)")
	if _, err := Eval(q, db, nil); err == nil {
		t.Error("row budget should trip")
	}
	if _, err := EvalProv(q, db, nil); err == nil {
		t.Error("row budget should trip in provenance mode")
	}
}
