package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fullScanSubinstance is the reference Subinstance: one pass over every
// tuple of D in relation creation order, keeping those whose id maps to
// true. The indexed Subinstance must build exactly the same database.
func fullScanSubinstance(d *Database, keep map[TupleID]bool) *Database {
	sub := NewDatabase()
	sub.nextID = d.nextID
	for _, name := range d.order {
		r := d.rels[name]
		nr := sub.CreateRelation(name, r.Schema)
		for i, t := range r.Tuples {
			id := r.IDs[i]
			if keep[id] {
				sub.byID[id] = tupleRef{rel: name, idx: len(nr.Tuples)}
				nr.AppendWithID(t, id)
			}
		}
	}
	return sub
}

// randomInterleavedDB builds a database whose relations are created and
// filled in random interleaving: ids are not grouped by relation, some
// relations stay empty, and some are created after tuples already exist.
func randomInterleavedDB(rng *rand.Rand) *Database {
	db := NewDatabase()
	schema := NewSchema(Attr("a", KindInt), Attr("b", KindString))
	var names []string
	newRel := func() {
		name := fmt.Sprintf("R%d", len(names))
		db.CreateRelation(name, schema)
		names = append(names, name)
	}
	newRel()
	for step := rng.Intn(60); step > 0; step-- {
		if rng.Intn(8) == 0 {
			newRel()
			continue
		}
		db.Insert(names[rng.Intn(len(names))], NewTuple(Int(int64(rng.Intn(5))), String(fmt.Sprint(rng.Intn(3)))))
	}
	if rng.Intn(3) == 0 {
		newRel() // a trailing empty relation
	}
	return db
}

// randomKeep draws a keep map over db: kept ids, ids mapped to false (as
// ShrinkGreedy's fallback leaves them), and ids that are not in db at all.
func randomKeep(rng *rand.Rand, db *Database) map[TupleID]bool {
	keep := map[TupleID]bool{}
	if rng.Intn(6) == 0 {
		return keep // the empty set
	}
	for _, id := range db.AllIDs() {
		switch rng.Intn(4) {
		case 0:
			keep[id] = true
		case 1:
			keep[id] = false
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		keep[db.nextID+TupleID(1+rng.Intn(10))] = rng.Intn(2) == 0
	}
	return keep
}

// sameDatabase reports the first difference between two databases: relation
// order (empty relations included), schemas, tuples and ids in order,
// Lookup over probe ids, AllIDs and the id counter.
func sameDatabase(got, want *Database, probe []TupleID) error {
	if !slices.Equal(got.Names(), want.Names()) {
		return fmt.Errorf("relation order %v, want %v", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		g, w := got.Relation(name), want.Relation(name)
		if !g.Schema.Equal(w.Schema) {
			return fmt.Errorf("%s: schema %s, want %s", name, g.Schema, w.Schema)
		}
		if !slices.Equal(g.IDs, w.IDs) {
			return fmt.Errorf("%s: ids %v, want %v", name, g.IDs, w.IDs)
		}
		if len(g.Tuples) != len(w.Tuples) {
			return fmt.Errorf("%s: %d tuples, want %d", name, len(g.Tuples), len(w.Tuples))
		}
		for i := range w.Tuples {
			if !g.Tuples[i].Identical(w.Tuples[i]) {
				return fmt.Errorf("%s[%d]: %v, want %v", name, i, g.Tuples[i], w.Tuples[i])
			}
		}
	}
	for _, id := range probe {
		gr, gt, gok := got.Lookup(id)
		wr, wt, wok := want.Lookup(id)
		if gok != wok || gr != wr || !gt.Identical(wt) {
			return fmt.Errorf("Lookup(%d) = (%q, %v, %v), want (%q, %v, %v)", id, gr, gt, gok, wr, wt, wok)
		}
	}
	if !slices.Equal(got.AllIDs(), want.AllIDs()) {
		return fmt.Errorf("AllIDs %v, want %v", got.AllIDs(), want.AllIDs())
	}
	if got.nextID != want.nextID {
		return fmt.Errorf("nextID %d, want %d", got.nextID, want.nextID)
	}
	return nil
}

// TestSubinstanceMatchesFullScan: the indexed Subinstance builds the same
// database as a full scan of D, on random interleaved instances, random keep
// maps, and after later inserts into a database that already served
// subinstances (as committed session inserts do).
func TestSubinstanceMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		db := randomInterleavedDB(rng)
		for round := 0; round < 3; round++ {
			keep := randomKeep(rng, db)
			probe := db.AllIDs()
			for id := range keep {
				probe = append(probe, id)
			}
			slices.Sort(probe)
			got, want := db.Subinstance(keep), fullScanSubinstance(db, keep)
			if err := sameDatabase(got, want, probe); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			// Later inserts append to their relation with ids above
			// every existing one.
			names := db.Names()
			for i := rng.Intn(5); i > 0; i-- {
				db.Insert(names[rng.Intn(len(names))], NewTuple(Int(int64(rng.Intn(5))), String("new")))
			}
		}
	}
}
