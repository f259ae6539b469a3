package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Database is a named collection of base relations whose tuples carry
// database-wide unique identifiers. It is the "database instance D" of the
// paper; counterexamples are subinstances selected by tuple identifier.
type Database struct {
	rels   map[string]*Relation
	order  []string
	nextID TupleID
	byID   map[TupleID]tupleRef
	// version counts content mutations (inserts); derived holds an opaque
	// cache of data computed from the instance (the engine's cardinality
	// statistics), validated against version by its owner. The slot is
	// atomic because a read-only database may be shared by concurrent
	// requests that race to populate it; version is a plain field because
	// mutation and concurrent sharing never overlap (instances are built,
	// then served read-only).
	version int64
	derived atomic.Value
}

type tupleRef struct {
	rel string
	idx int
}

// NewDatabase creates an empty database instance.
func NewDatabase() *Database {
	return &Database{
		rels: make(map[string]*Relation),
		byID: make(map[TupleID]tupleRef),
	}
}

// CreateRelation registers an empty base relation. It panics if the name is
// already taken.
func (d *Database) CreateRelation(name string, schema Schema) *Relation {
	if _, ok := d.rels[name]; ok {
		panic(fmt.Sprintf("relation: duplicate relation %q", name))
	}
	r := NewRelation(name, schema)
	d.rels[name] = r
	d.order = append(d.order, name)
	return r
}

// Insert appends a tuple to a base relation, assigning and returning a fresh
// identifier. It panics on arity mismatch or unknown relation.
func (d *Database) Insert(name string, t Tuple) TupleID {
	r, ok := d.rels[name]
	if !ok {
		panic(fmt.Sprintf("relation: unknown relation %q", name))
	}
	if len(t) != r.Schema.Arity() {
		panic(fmt.Sprintf("relation: arity mismatch inserting into %q: got %d want %d", name, len(t), r.Schema.Arity()))
	}
	d.nextID++
	id := d.nextID
	d.byID[id] = tupleRef{rel: name, idx: len(r.Tuples)}
	r.AppendWithID(t, id)
	d.version++
	return id
}

// Version returns a counter that changes whenever the database content
// does. Derived-data caches compare it to detect staleness.
func (d *Database) Version() int64 { return d.version }

// Derived returns the opaque derived-data cache slot, or nil.
func (d *Database) Derived() any { return d.derived.Load() }

// SetDerived publishes a derived-data cache for this instance. Concurrent
// publishers may race; any published value must be recomputable, and
// last-write-wins is fine.
func (d *Database) SetDerived(v any) { d.derived.Store(v) }

// Relation returns the named base relation, or nil.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Names returns relation names in creation order.
func (d *Database) Names() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Size returns the total number of tuples across all relations (|D|).
func (d *Database) Size() int {
	n := 0
	for _, name := range d.order {
		n += d.rels[name].Len()
	}
	return n
}

// Lookup resolves an identifier to its relation name and tuple, or ok=false.
func (d *Database) Lookup(id TupleID) (relName string, t Tuple, ok bool) {
	ref, ok := d.byID[id]
	if !ok {
		return "", nil, false
	}
	return ref.rel, d.rels[ref.rel].Tuples[ref.idx], true
}

// AllIDs returns every tuple identifier in the database, sorted.
func (d *Database) AllIDs() []TupleID {
	out := make([]TupleID, 0, len(d.byID))
	for id := range d.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subinstance builds the subinstance D' ⊆ D containing exactly the tuples
// whose identifiers map to true in keep (ids not in D are ignored). Tuples
// retain their original identifiers, so provenance variables remain stable
// across subinstances. Every relation of D is present, empty or not, in
// creation order, and kept tuples stay in their order within D. The cost is
// O(|keep| log |keep|) plus one step per relation, not O(|D|): callers build
// witness-sized subinstances of large instances in a loop.
func (d *Database) Subinstance(keep map[TupleID]bool) *Database {
	relIdx := make(map[string]int, len(d.order))
	for i, name := range d.order {
		relIdx[name] = i
	}
	type keptRef struct {
		rel, idx int
		id       TupleID
	}
	refs := make([]keptRef, 0, len(keep))
	for id, ok := range keep {
		if !ok {
			continue
		}
		if ref, found := d.byID[id]; found {
			refs = append(refs, keptRef{rel: relIdx[ref.rel], idx: ref.idx, id: id})
		}
	}
	slices.SortFunc(refs, func(a, b keptRef) int {
		if c := cmp.Compare(a.rel, b.rel); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	sub := NewDatabase()
	sub.nextID = d.nextID
	rels := make([]*Relation, len(d.order))
	for i, name := range d.order {
		rels[i] = sub.CreateRelation(name, d.rels[name].Schema)
	}
	for _, ref := range refs {
		name, nr := d.order[ref.rel], rels[ref.rel]
		sub.byID[ref.id] = tupleRef{rel: name, idx: len(nr.Tuples)}
		nr.AppendWithID(d.rels[name].Tuples[ref.idx], ref.id)
	}
	return sub
}

// SubinstanceOf reports whether every tuple of d appears (by identifier) in
// parent.
func (d *Database) SubinstanceOf(parent *Database) bool {
	for id := range d.byID {
		if _, ok := parent.byID[id]; !ok {
			return false
		}
	}
	return true
}

// Clone deep-copies the database (tuples are shared; they are immutable by
// convention).
func (d *Database) Clone() *Database {
	out := NewDatabase()
	out.nextID = d.nextID
	for _, name := range d.order {
		r := d.rels[name]
		nr := out.CreateRelation(name, r.Schema)
		nr.Tuples = append(nr.Tuples, r.Tuples...)
		nr.IDs = append(nr.IDs, r.IDs...)
		for i, id := range r.IDs {
			out.byID[id] = tupleRef{rel: name, idx: i}
		}
	}
	return out
}

// String renders all relations.
func (d *Database) String() string {
	var b strings.Builder
	for _, name := range d.order {
		b.WriteString(d.rels[name].String())
	}
	return b.String()
}
