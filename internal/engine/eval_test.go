package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

func mustEval(t *testing.T, src string, db *relation.Database) *relation.Relation {
	t.Helper()
	q, err := raparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.Eval(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvalBaseRelation(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "Student", db)
	if r.Len() != 3 {
		t.Errorf("Student len = %d", r.Len())
	}
}

func TestEvalSelectJoin(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "select[dept = 'CS'](Student join Registration)", db)
	// 6 CS registrations joined with their students.
	if r.Len() != 6 {
		t.Errorf("len = %d, want 6", r.Len())
	}
	if r.Schema.Arity() != 5 {
		t.Errorf("arity = %d, want 5", r.Schema.Arity())
	}
}

func TestEvalProjectDedups(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "project[dept](Registration)", db)
	if r.Len() != 2 {
		t.Errorf("distinct depts = %d, want 2", r.Len())
	}
}

func TestEvalExample1Results(t *testing.T) {
	// Figure 2 of the paper: Q1 returns {(John, ECON)}, Q2 returns all 3.
	db := testdb.Example1DB()
	r1, err := engine.Eval(testdb.Q1(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 || !r1.Tuples[0][0].Identical(relation.String("John")) {
		t.Errorf("Q1(D) = %v, want [(John, ECON)]", r1.Tuples)
	}
	r2, err := engine.Eval(testdb.Q2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 3 {
		t.Errorf("Q2(D) = %v, want 3 tuples", r2.Tuples)
	}
	diff := r2.SetDiff(r1)
	if diff.Len() != 2 {
		t.Errorf("Q2-Q1 = %v, want Mary and Jesse", diff.Tuples)
	}
}

func TestEvalUnionDiff(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "project[name](Student) union project[name](Registration)", db)
	if r.Len() != 3 {
		t.Errorf("union len = %d", r.Len())
	}
	r = mustEval(t, "project[name](Student) diff project[name](select[dept = 'ECON'](Registration))", db)
	if r.Len() != 1 || !r.Tuples[0][0].Identical(relation.String("Jesse")) {
		t.Errorf("diff = %v, want [Jesse]", r.Tuples)
	}
}

func TestEvalThetaJoinAndRename(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, `project[s.name](select[r1.course <> r2.course and r1.dept = 'CS' and r2.dept = 'CS'
		and s.name = r1.name and s.name = r2.name](
		rename[s](Student) cross rename[r1](Registration) cross rename[r2](Registration)))`, db)
	// Students with >= 2 distinct CS courses: Mary, Jesse.
	if r.Len() != 2 {
		t.Errorf("multi-CS students = %v", r.Tuples)
	}
}

func TestEvalGroupByExample4(t *testing.T) {
	db := testdb.Example1DB()
	r, err := engine.Eval(testdb.AggQ1(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Mary": 87.5, "John": 90, "Jesse": 90}
	if r.Len() != 3 {
		t.Fatalf("groups = %v", r.Tuples)
	}
	for _, tup := range r.Tuples {
		name := tup[0].AsString()
		if got := tup[1].AsFloat(); got != want[name] {
			t.Errorf("avg(%s) = %v, want %v", name, got, want[name])
		}
	}
}

func TestEvalGroupByHaving(t *testing.T) {
	db := testdb.Example1DB()
	r, err := engine.Eval(testdb.HavingQ1(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only Jesse has >= 3 CS courses.
	if r.Len() != 1 || !r.Tuples[0][0].Identical(relation.String("Jesse")) {
		t.Errorf("having result = %v", r.Tuples)
	}
	r2, err := engine.Eval(testdb.HavingQ2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without the dept filter, Mary (3 courses) also qualifies.
	if r2.Len() != 2 {
		t.Errorf("wrong-query result = %v", r2.Tuples)
	}
}

func TestEvalParameters(t *testing.T) {
	db := testdb.Example1DB()
	q := testdb.ParamQ1()
	r, err := engine.Eval(q, db, map[string]relation.Value{"numCS": relation.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("numCS=3: %v", r.Tuples)
	}
	r, err = engine.Eval(q, db, map[string]relation.Value{"numCS": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Errorf("numCS=1: %v", r.Tuples)
	}
	if _, err := engine.Eval(q, db, nil); err == nil {
		t.Error("unbound parameter should error")
	}
}

func TestEvalAggFunctions(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "groupby[name; count(*) -> c, sum(grade) -> s, min(grade) -> mn, max(grade) -> mx](Registration)", db)
	byName := map[string]relation.Tuple{}
	for _, tup := range r.Tuples {
		byName[tup[0].AsString()] = tup
	}
	mary := byName["Mary"]
	if mary[1].AsInt() != 3 || mary[2].AsInt() != 270 || mary[3].AsInt() != 75 || mary[4].AsInt() != 100 {
		t.Errorf("Mary aggs = %v", mary)
	}
}

func TestEvalGroupByEmptyGroupCols(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "groupby[; count(*) -> c](Student)", db)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 3 {
		t.Errorf("global count = %v", r.Tuples)
	}
}

func TestEvalAggNullHandling(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(
		relation.Attr("g", relation.KindString), relation.Attr("v", relation.KindInt)))
	db.Insert("R", relation.NewTuple(relation.String("a"), relation.Int(10)))
	db.Insert("R", relation.NewTuple(relation.String("a"), relation.Null()))
	r := mustEval(t, "groupby[g; count(v) -> c, avg(v) -> a](R)", db)
	if r.Tuples[0][1].AsInt() != 1 {
		t.Errorf("count skips NULL: %v", r.Tuples[0])
	}
	if r.Tuples[0][2].AsFloat() != 10 {
		t.Errorf("avg skips NULL: %v", r.Tuples[0])
	}
}

func TestEvalErrors(t *testing.T) {
	db := testdb.Example1DB()
	bad := []string{
		"Nope",
		"select[nope = 1](Student)",
		"project[nope](Student)",
		"Student union Registration",
		"Student diff Registration",
	}
	for _, src := range bad {
		q, err := raparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Eval(q, db, nil); err == nil {
			t.Errorf("engine.Eval(%q) should fail", src)
		}
	}
}

func TestEvalNullsDontJoin(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("A", relation.NewSchema(relation.Attr("k", relation.KindString)))
	db.CreateRelation("B", relation.NewSchema(
		relation.Attr("k", relation.KindString), relation.Attr("v", relation.KindInt)))
	db.Insert("A", relation.NewTuple(relation.Null()))
	db.Insert("A", relation.NewTuple(relation.String("x")))
	db.Insert("B", relation.NewTuple(relation.Null(), relation.Int(1)))
	db.Insert("B", relation.NewTuple(relation.String("x"), relation.Int(2)))
	r := mustEval(t, "A join B", db)
	if r.Len() != 1 {
		t.Errorf("NULL keys must not join: %v", r.Tuples)
	}
}

func TestCatalogAdapter(t *testing.T) {
	db := testdb.Example1DB()
	cat := engine.Catalog{DB: db}
	if _, ok := cat.RelationSchema("Student"); !ok {
		t.Error("Student should resolve")
	}
	if _, ok := cat.RelationSchema("Nope"); ok {
		t.Error("Nope should not resolve")
	}
	q := testdb.Q1()
	if _, err := ra.OutSchema(q, cat); err != nil {
		t.Errorf("schema inference on Q1: %v", err)
	}
}
