package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// TestEnumerateSmallestExample2 validates the paper's Example 2 exactly:
// the running example has precisely four smallest counterexamples —
// S'={t1}, R'={t4,t5} for Mary, and S”={t3} with any two of Jesse's three
// CS courses {t9,t10,t11}.
func TestEnumerateSmallestExample2(t *testing.T) {
	p := example1Problem()
	ces, err := EnumerateSmallest(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) != 4 {
		for _, ce := range ces {
			t.Logf("counterexample: %v", ce.IDs)
		}
		t.Fatalf("found %d smallest counterexamples, want 4 (Example 2)", len(ces))
	}
	want := map[string]bool{
		"1,4,5":   false,
		"3,9,10":  false,
		"3,9,11":  false,
		"3,10,11": false,
	}
	for _, ce := range ces {
		if ce.Size() != 3 {
			t.Errorf("counterexample size %d, want 3", ce.Size())
		}
		key := readableIDs(ce.IDs)
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected counterexample %s", key)
		} else {
			want[key] = true
		}
		if err := Verify(p, ce); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
	for k, found := range want {
		if !found {
			t.Errorf("missing smallest counterexample {%s}", k)
		}
	}
}

// readableIDs renders an id set as "1,4,5" (idsKey is now a binary
// encoding, unsuitable for test expectations).
func readableIDs(ids []relation.TupleID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}

// TestEnumerateSmallestIsomorphicWitnesses is the regression for the case
// fingerprint: two differing tuples whose witness formulas are structurally
// identical CNFs (here, single-variable formulas) over *different* base
// tuples must both be enumerated — the dedup key has to include the
// SAT-variable-to-tuple-id grounding, not just the clause structure.
func TestEnumerateSmallestIsomorphicWitnesses(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindInt)))
	db.Insert("R", relation.NewTuple(relation.Int(1)))
	db.Insert("R", relation.NewTuple(relation.Int(2)))
	q1 := raparser.MustParse("R")
	q2 := raparser.MustParse("select[a = 999](R)")
	ces, err := EnumerateSmallest(Problem{Q1: q1, Q2: q2, DB: db}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) != 2 {
		for _, ce := range ces {
			t.Logf("counterexample: %v", ce.IDs)
		}
		t.Fatalf("found %d smallest counterexamples, want 2 ({1} and {2})", len(ces))
	}
}

func TestEnumerateSmallestRespectsMax(t *testing.T) {
	p := example1Problem()
	ces, err := EnumerateSmallest(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) > 2 {
		t.Errorf("max=2 but got %d", len(ces))
	}
}

func TestEnumerateSmallestAgreeError(t *testing.T) {
	p := example1Problem()
	p.Q2 = p.Q1
	if _, err := EnumerateSmallest(p, 8); err == nil {
		t.Error("agreeing queries should error")
	}
}

func TestEnumerateSmallestWithFK(t *testing.T) {
	p := example1Problem()
	p.Constraints = testdb.Constraints()
	ces, err := EnumerateSmallest(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range ces {
		if err := Verify(p, ce); err != nil {
			t.Errorf("FK-constrained enumeration produced invalid counterexample: %v", err)
		}
	}
}

// TestEnumerateSmallestVerifiedUniformSize: on the running example every
// enumerated counterexample has the same smallest size and verifies.
func TestEnumerateSmallestVerifiedUniformSize(t *testing.T) {
	p := example1Problem()
	p.Constraints = testdb.Constraints()
	ces, err := EnumerateSmallest(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) == 0 {
		t.Fatal("no counterexamples enumerated")
	}
	size := ces[0].Size()
	for _, ce := range ces {
		if ce.Size() != size {
			t.Errorf("non-uniform smallest size: %d vs %d", ce.Size(), size)
		}
		if err := Verify(p, ce); err != nil {
			t.Errorf("invalid counterexample: %v", err)
		}
	}
}
