package engine_test

import (
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// assignIDs builds an assignment where exactly the listed tuple ids are
// present.
func assignIDs(ids ...int) func(int) bool {
	set := map[int]bool{}
	for _, id := range ids {
		set[id] = true
	}
	return func(id int) bool { return set[id] }
}

func TestProvBaseAndJoin(t *testing.T) {
	db := testdb.Example1DB()
	q := raparser.MustParse("select[dept = 'CS'](Student join Registration)")
	ann, err := engine.EvalProv(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Len() != 6 {
		t.Fatalf("len = %d", ann.Len())
	}
	// Each joined tuple's provenance is the conjunction of its sources,
	// e.g. (Mary, 216, ...) = t1 ∧ t4.
	for i, tup := range ann.Tuples {
		prov := ann.Anns[i]
		vars := prov.Vars()
		if len(vars) != 2 {
			t.Errorf("%v: prov %v should have 2 vars", tup, prov)
		}
	}
}

func TestProvExample1Equation1(t *testing.T) {
	// Prv_{Q2}(Mary, CS) = t1·(t4 + t5), Equation (1) of the paper.
	db := testdb.Example1DB()
	ann, err := engine.EvalProv(testdb.Q2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := ann.Lookup(relation.NewTuple(relation.String("Mary"), relation.String("CS")))
	if i < 0 {
		t.Fatal("Mary missing")
	}
	prov := ann.Anns[i]
	// Check logical equivalence with t1·(t4+t5) over the relevant vars.
	want := boolexpr.And(boolexpr.Var(1), boolexpr.Or(boolexpr.Var(4), boolexpr.Var(5)))
	for mask := 0; mask < 8; mask++ {
		ids := []int{}
		if mask&1 != 0 {
			ids = append(ids, 1)
		}
		if mask&2 != 0 {
			ids = append(ids, 4)
		}
		if mask&4 != 0 {
			ids = append(ids, 5)
		}
		a := assignIDs(ids...)
		if prov.Eval(a) != want.Eval(a) {
			t.Errorf("mismatch at %v: prov=%v", ids, prov)
		}
	}
}

func TestProvDifferenceExample21(t *testing.T) {
	// Example 2.1: Prv_{Q2−Q1}(Mary, CS) ≡ t1·t4·t5.
	db := testdb.Example1DB()
	q := &ra.Diff{L: testdb.Q2(), R: testdb.Q1()}
	ann, err := engine.EvalProv(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := ann.Lookup(relation.NewTuple(relation.String("Mary"), relation.String("CS")))
	if i < 0 {
		t.Fatal("Mary missing from annotated Q2−Q1")
	}
	prov := ann.Anns[i]
	// Mary's row needs t1, t4, t5 all present; check all assignments over
	// {t1,t4,t5} (other tuples absent — they don't affect Mary's row).
	for mask := 0; mask < 8; mask++ {
		var ids []int
		if mask&1 != 0 {
			ids = append(ids, 1)
		}
		if mask&2 != 0 {
			ids = append(ids, 4)
		}
		if mask&4 != 0 {
			ids = append(ids, 5)
		}
		got := prov.Eval(assignIDs(ids...))
		want := mask == 7
		if got != want {
			t.Errorf("ids=%v: prov=%v, want %v", ids, got, want)
		}
	}
}

func TestProvExactnessAgainstSubinstances(t *testing.T) {
	// Fundamental exactness property: for every subinstance D' and output
	// tuple t, Prv(t) evaluated on D' ⇔ t ∈ Q(D'). Exhaustive over a
	// reduced id space for tractability.
	db := testdb.Example1DB()
	queries := []string{
		"project[name, major](select[dept = 'CS'](Student join Registration))",
		"project[name](Student) diff project[name](select[dept = 'ECON'](Registration))",
		"project[name](select[grade >= 90](Registration)) union project[name](Student)",
	}
	for _, src := range queries {
		q := raparser.MustParse(src)
		ann, err := engine.EvalProv(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sample subinstances: single student + subsets of registrations 4..8.
		for mask := 0; mask < 64; mask++ {
			keep := map[relation.TupleID]bool{1: mask&32 != 0, 2: true, 3: false}
			var ids []int
			if mask&32 != 0 {
				ids = append(ids, 1)
			}
			ids = append(ids, 2)
			for b := 0; b < 5; b++ {
				if mask&(1<<b) != 0 {
					keep[relation.TupleID(4+b)] = true
					ids = append(ids, 4+b)
				}
			}
			sub := db.Subinstance(keep)
			res, err := engine.Eval(q, sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			inResult := map[string]bool{}
			for _, tup := range res.Tuples {
				inResult[testdb.TupleKey(tup)] = true
			}
			assign := assignIDs(ids...)
			for i, tup := range ann.Tuples {
				if ann.Anns[i].Eval(assign) != inResult[testdb.TupleKey(tup)] {
					t.Fatalf("%s: exactness violated for %v on ids %v (prov=%v, inResult=%v)",
						src, tup, ids, ann.Anns[i], inResult[testdb.TupleKey(tup)])
				}
			}
			// Tuples in Q(D') must all appear in the annotated full result
			// (monotonicity of the annotated carrier set holds for these
			// queries).
			for _, tup := range res.Tuples {
				if ann.Lookup(tup) < 0 {
					t.Fatalf("%s: tuple %v in Q(D') missing from annotated Q(D)", src, tup)
				}
			}
		}
	}
}

func TestProvDedupMergesWithOr(t *testing.T) {
	db := testdb.Example1DB()
	// project[name] over Registration: Mary appears via t4, t5, t6.
	ann, err := engine.EvalProv(raparser.MustParse("project[name](Registration)"), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := ann.Lookup(relation.NewTuple(relation.String("Mary")))
	if i < 0 {
		t.Fatal("Mary missing")
	}
	vars := ann.Anns[i].Vars()
	if len(vars) != 3 {
		t.Errorf("Mary's projection prov vars = %v, want t4,t5,t6", vars)
	}
}

func TestProvRejectsGroupBy(t *testing.T) {
	db := testdb.Example1DB()
	if _, err := engine.EvalProv(testdb.AggQ1(), db, nil); err == nil {
		t.Error("EvalProv should reject aggregation")
	}
}

func TestProvRenamePreservesAnnotations(t *testing.T) {
	db := testdb.Example1DB()
	ann, err := engine.EvalProv(raparser.MustParse("rename[s](Student)"), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Schema.Attrs[0].Name != "s.name" {
		t.Errorf("schema = %v", ann.Schema)
	}
	if ann.Len() != 3 {
		t.Errorf("len = %d", ann.Len())
	}
}

func TestProvRelRelation(t *testing.T) {
	db := testdb.Example1DB()
	ann, err := engine.EvalProv(testdb.Q2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := ann.Relation("q2")
	if r.Len() != ann.Len() || r.Name != "q2" {
		t.Error("Relation() mismatch")
	}
}
