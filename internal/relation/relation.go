package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is a named table: a schema plus an ordered list of tuples. Base
// relations stored in a Database also carry per-tuple identifiers.
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
	// IDs holds the database-wide identifier of each tuple; it is parallel
	// to Tuples. Empty for derived (query-result) relations.
	IDs []TupleID
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds a tuple without an identifier (derived relation use).
func (r *Relation) Append(t Tuple) { r.Tuples = append(r.Tuples, t) }

// AppendWithID adds a tuple carrying a base identifier.
func (r *Relation) AppendWithID(t Tuple, id TupleID) {
	r.Tuples = append(r.Tuples, t)
	r.IDs = append(r.IDs, id)
}

// ID returns the identifier of tuple i, or InvalidTupleID for derived
// relations.
func (r *Relation) ID(i int) TupleID {
	if i < len(r.IDs) {
		return r.IDs[i]
	}
	return InvalidTupleID
}

// Contains reports whether the relation contains a tuple identical to t.
func (r *Relation) Contains(t Tuple) bool {
	for _, u := range r.Tuples {
		if u.Identical(t) {
			return true
		}
	}
	return false
}

// Dedup returns a copy of the relation with duplicate tuples removed,
// preserving first-occurrence order. Identifier of the first occurrence is
// kept when present.
func (r *Relation) Dedup() *Relation {
	out := NewRelation(r.Name, r.Schema)
	idx := NewIndex(len(r.Tuples))
	for i, t := range r.Tuples {
		if _, added := idx.FindOrAdd(t.Hash(), out.Tuples, nil, t, nil); !added {
			continue
		}
		if len(r.IDs) > 0 {
			out.AppendWithID(t, r.IDs[i])
		} else {
			out.Append(t)
		}
	}
	return out
}

// SetEqual reports whether two relations contain the same set of tuples
// (ignoring order and multiplicity).
func (r *Relation) SetEqual(o *Relation) bool {
	return subset(r.Tuples, o.Tuples) && subset(o.Tuples, r.Tuples)
}

// subset reports whether every tuple of a has an Identical tuple in b.
func subset(a, b []Tuple) bool {
	idx := indexTuples(b)
	for _, t := range a {
		if idx.Find(t.Hash(), b, nil, t, nil) < 0 {
			return false
		}
	}
	return true
}

// SetDiff returns the tuples of r not present in o (set semantics, deduped).
func (r *Relation) SetDiff(o *Relation) *Relation {
	other := indexTuples(o.Tuples)
	out := NewRelation(r.Name, r.Schema)
	seen := NewIndex(len(r.Tuples))
	for _, t := range r.Tuples {
		h := t.Hash()
		if other.Find(h, o.Tuples, nil, t, nil) >= 0 {
			continue
		}
		if _, added := seen.FindOrAdd(h, out.Tuples, nil, t, nil); added {
			out.Append(t)
		}
	}
	return out
}

// indexTuples indexes every position of ts by its tuple's hash.
func indexTuples(ts []Tuple) *Index {
	idx := NewIndex(len(ts))
	for i, t := range ts {
		idx.Add(t.Hash(), i)
	}
	return idx
}

// Sorted returns a copy with tuples in canonical order (for deterministic
// display and testing).
func (r *Relation) Sorted() *Relation {
	out := NewRelation(r.Name, r.Schema)
	out.Tuples = make([]Tuple, len(r.Tuples))
	copy(out.Tuples, r.Tuples)
	idx := make([]int, len(r.Tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return tupleLess(r.Tuples[idx[a]], r.Tuples[idx[b]])
	})
	out.Tuples = out.Tuples[:0]
	for _, i := range idx {
		out.Tuples = append(out.Tuples, r.Tuples[i])
		if len(r.IDs) > 0 {
			out.IDs = append(out.IDs, r.IDs[i])
		}
	}
	return out
}

func tupleLess(a, b Tuple) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].SortKey(b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// String renders the relation as a small text table.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d tuples]\n", r.Name, r.Schema, len(r.Tuples))
	for i, t := range r.Tuples {
		if i >= 20 {
			fmt.Fprintf(&b, "  ... (%d more)\n", len(r.Tuples)-i)
			break
		}
		if id := r.ID(i); id != InvalidTupleID {
			fmt.Fprintf(&b, "  %s %s\n", t, id.Label())
		} else {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	return b.String()
}
