package engine

import (
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file executes the physical nodes the cost-based planner emits:
// positional hash equi-join, the semi-join filter of the Yannakakis
// reduction, and the column permutation that restores a reordered region's
// original output schema.

// equiJoin executes a planner-emitted positional equi-join. It is the
// θ-join's hash path minus condition compilation: keys are column indices,
// there is never a residual predicate, and the full concatenation is kept
// (the trailing Permute drops and reorders columns).
func (e *exec[T]) equiJoin(x *ra.EquiJoin, l, r *Rel[T]) (*Rel[T], error) {
	out := NewRel[T](l.Schema.Concat(r.Schema))
	combine := func(_ *relation.Tuple, li, ri int) (relation.Tuple, bool, error) {
		return l.Tuples[li].Concat(r.Tuples[ri]), true, nil
	}
	var pairs int
	emit := func(li, ri int) error {
		if pairs++; pairs%stopPollStride == 0 {
			if err := e.opts.poll(); err != nil {
				return err
			}
		}
		ann := e.s.Times(l.Anns[li], r.Anns[ri])
		if e.s.IsZero(ann) {
			return nil
		}
		if out.Len() >= e.opts.rowBudget() {
			return ErrRowBudget
		}
		t, _, _ := combine(nil, li, ri)
		// Distinct pairs of distinct inputs concatenate to distinct tuples.
		out.appendDistinct(t, ann)
		return nil
	}
	if e.opts.ForceNestedLoop {
		for li, lt := range l.Tuples {
			if lt.HasNullCols(x.LKeys) {
				continue
			}
			for ri, rt := range r.Tuples {
				if rt.HasNullCols(x.RKeys) || !lt.IdenticalCols(x.LKeys, rt, x.RKeys) {
					continue
				}
				if err := emit(li, ri); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	if w := e.opts.workerCount(l.Len() + r.Len()); w > 1 {
		return out, parallelHashJoin(e.s, l, r, x.LKeys, x.RKeys, w, e.opts.rowBudget(), e.opts.Stop, combine, out)
	}
	return out, hashJoin(l, r, x.LKeys, x.RKeys, emit)
}

// semiJoin executes L ⋉ R: left tuples with at least one key match on the
// right survive with their annotation untouched — a pure filter, sound for
// every semiring. Left tuples with NULL key columns are dropped (they could
// never survive the eventual equi-join on the same columns).
func (e *exec[T]) semiJoin(x *ra.Semi, l, r *Rel[T]) (*Rel[T], error) {
	out := NewRelCap[T](l.Schema, l.Len())
	if e.opts.ForceNestedLoop {
		for i, t := range l.Tuples {
			if t.HasNullCols(x.LKeys) {
				continue
			}
			for _, rt := range r.Tuples {
				if !rt.HasNullCols(x.RKeys) && t.IdenticalCols(x.LKeys, rt, x.RKeys) {
					out.appendDistinct(t, l.Anns[i])
					break
				}
			}
		}
		return out, nil
	}
	keys := relation.NewIndex(r.Len())
	for i, rt := range r.Tuples {
		if !rt.HasNullCols(x.RKeys) {
			keys.Add(rt.HashCols(x.RKeys), i)
		}
	}
	var probed int
	for i, t := range l.Tuples {
		if probed++; probed%stopPollStride == 0 {
			if err := e.opts.poll(); err != nil {
				return nil, err
			}
		}
		if t.HasNullCols(x.LKeys) {
			continue
		}
		if keys.Find(t.HashCols(x.LKeys), r.Tuples, x.RKeys, t, x.LKeys) < 0 {
			continue
		}
		// Output is a subset of the distinct left input.
		out.appendDistinct(t, l.Anns[i])
	}
	return out, nil
}

// permute reorders (and possibly drops) columns positionally. The planner
// only drops columns that are join-enforced equal to kept ones, so the
// mapping is injective on its input; Add still ⊕-merges defensively.
func (e *exec[T]) permute(x *ra.Permute, in *Rel[T]) *Rel[T] {
	out := NewRel[T](in.Schema.Project(x.Idxs))
	for i, t := range in.Tuples {
		out.addProjected(e.s, t, x.Idxs, in.Anns[i])
	}
	return out
}
