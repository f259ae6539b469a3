package engine

import (
	"repro/internal/boolexpr"
	"repro/internal/relation"
)

// Rel is an annotated relation: a schema, distinct tuples, and a parallel
// slice of semiring annotations. A hash index from tuple hash to position
// (relation.Index: a hash → position chain, each candidate confirmed with
// Identical) is built lazily: operators that preserve distinctness
// (selection, join) append without hashing, while duplicate-merging
// operators (base scan, projection, union) and probes (difference, Lookup)
// pay for the index only when they need it.
type Rel[T any] struct {
	Schema relation.Schema
	Tuples []relation.Tuple
	Anns   []T

	index *relation.Index
}

// ProvRel is the result of how-provenance evaluation.
type ProvRel = Rel[*boolexpr.Expr]

// NewRel creates an empty annotated relation.
func NewRel[T any](schema relation.Schema) *Rel[T] {
	return &Rel[T]{Schema: schema}
}

// NewRelCap creates an empty annotated relation with capacity for n tuples.
// Operators that know an output bound preallocate through this: repeated
// slice growth copies the annotation array as well as the tuple array.
func NewRelCap[T any](schema relation.Schema, n int) *Rel[T] {
	return &Rel[T]{
		Schema: schema,
		Tuples: make([]relation.Tuple, 0, n),
		Anns:   make([]T, 0, n),
	}
}

// Len returns the number of distinct tuples.
func (r *Rel[T]) Len() int { return len(r.Tuples) }

func (r *Rel[T]) tupleAt(i int) relation.Tuple { return r.Tuples[i] }

// newIndexedRel is NewRelCap with the tuple index built up front, for the
// duplicate-merging builds (base scans, unions) whose every Add probes it.
func newIndexedRel[T any](schema relation.Schema, n int) *Rel[T] {
	r := NewRelCap[T](schema, n)
	r.index = relation.NewIndex(n)
	return r
}

// ensureIndex builds the tuple-hash index if it is missing.
func (r *Rel[T]) ensureIndex() {
	if r.index != nil {
		return
	}
	r.index = relation.NewIndex(len(r.Tuples))
	for i, t := range r.Tuples {
		r.index.Add(t.Hash(), i)
	}
}

// Add inserts a tuple, ⊕-merging its annotation if an identical tuple is
// already present.
func (r *Rel[T]) Add(s Semiring[T], t relation.Tuple, ann T) {
	r.ensureIndex()
	if i, added := r.index.FindOrAdd(t.Hash(), r.Tuples, nil, t, nil); !added {
		r.Anns[i] = s.Plus(r.Anns[i], ann)
		return
	}
	r.Tuples = append(r.Tuples, t)
	r.Anns = append(r.Anns, ann)
}

// addProjected is Add(s, src.Project(idxs), ann) that builds the projected
// tuple only when no identical tuple is present yet: projections that
// collapse many inputs onto few outputs allocate once per output.
func (r *Rel[T]) addProjected(s Semiring[T], src relation.Tuple, idxs []int, ann T) {
	r.ensureIndex()
	if i, added := r.index.FindOrAdd(src.HashCols(idxs), r.Tuples, nil, src, idxs); !added {
		r.Anns[i] = s.Plus(r.Anns[i], ann)
		return
	}
	r.Tuples = append(r.Tuples, src.Project(idxs))
	r.Anns = append(r.Anns, ann)
}

// appendDistinct appends a tuple the caller guarantees is not already
// present (e.g. produced by a distinctness-preserving operator). It skips
// hashing unless an index already exists.
func (r *Rel[T]) appendDistinct(t relation.Tuple, ann T) {
	if r.index != nil {
		r.index.Add(t.Hash(), len(r.Tuples))
	}
	r.Tuples = append(r.Tuples, t)
	r.Anns = append(r.Anns, ann)
}

// Lookup returns the position of an identical tuple, or -1. It is a hash
// probe (the index is built on first use).
func (r *Rel[T]) Lookup(t relation.Tuple) int {
	r.ensureIndex()
	return r.index.Find(t.Hash(), r.Tuples, nil, t, nil)
}

// Relation strips annotations, returning a plain relation.
func (r *Rel[T]) Relation(name string) *relation.Relation {
	out := relation.NewRelation(name, r.Schema)
	out.Tuples = append(out.Tuples, r.Tuples...)
	return out
}
