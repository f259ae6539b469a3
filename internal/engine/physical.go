package engine

import (
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the physical operator layer: hash equi-join (driven by the
// keys EquiJoinPlan extracts), hash-based union/difference/intersection and
// duplicate merging, and the nested-loop fallbacks used for residual-only
// θ-conditions and as a benchmark baseline.

// pairFunc builds the output tuple for the candidate pair (li, ri) of a
// join, reporting false when a residual θ-condition rejects it. scratch is
// a buffer the caller owns and reuses across pairs; it is the only state a
// pairFunc touches, so the parallel join gives each worker its own.
type pairFunc func(scratch *relation.Tuple, li, ri int) (relation.Tuple, bool, error)

// join dispatches a theta or natural join.
func (e *exec[T]) join(l, r *Rel[T], cond ra.Expr) (*Rel[T], error) {
	if cond == nil {
		return e.naturalJoin(l, r)
	}
	outSchema := l.Schema.Concat(r.Schema)
	lKeys, rKeys := []int(nil), []int(nil)
	residual := cond
	if !e.opts.ForceNestedLoop {
		lKeys, rKeys, residual = EquiJoinPlan(cond, l.Schema, r.Schema)
	}
	var pred ra.CompiledExpr
	if residual != nil {
		var err error
		pred, err = ra.CompileExpr(residual, outSchema, e.params)
		if err != nil {
			return nil, err
		}
	}
	out := NewRel[T](outSchema)
	// combine builds the output tuple for a candidate pair, applying the
	// residual θ-condition; it is shared by the serial and parallel paths
	// (the compiled predicate closures are stateless and safe to share).
	// The predicate runs on the caller's scratch buffer, reused across
	// pairs (one per worker on the parallel path), so a rejected pair —
	// the bulk of a residual-only θ-join — allocates nothing; only an
	// accepted pair is copied out.
	combine := func(scratch *relation.Tuple, li, ri int) (relation.Tuple, bool, error) {
		if pred == nil {
			return l.Tuples[li].Concat(r.Tuples[ri]), true, nil
		}
		buf := append(append((*scratch)[:0], l.Tuples[li]...), r.Tuples[ri]...)
		*scratch = buf
		v, err := pred(buf)
		if err != nil {
			return nil, false, err
		}
		if !ra.Truthy(v) {
			return nil, false, nil
		}
		return buf.Clone(), true, nil
	}
	var scratch relation.Tuple
	var pairs int
	emit := func(li, ri int) error {
		// Stride-poll the stop hook: emit sees every probed pair (the
		// θ-predicate runs inside combine), so this bounds a deadline
		// overshoot inside one join to stopPollStride pairs.
		if pairs++; pairs%stopPollStride == 0 {
			if err := e.opts.poll(); err != nil {
				return err
			}
		}
		t, ok, err := combine(&scratch, li, ri)
		if err != nil || !ok {
			return err
		}
		// Zero ⊗-products are absent tuples: they are dropped and do not
		// count against the row budget. The product is computed only after
		// the θ-predicate passes: Times can be expensive (why-provenance
		// allocates an And node), so rejected pairs — the bulk of a
		// nested-loop θ-join — must not pay for it.
		ann := e.s.Times(l.Anns[li], r.Anns[ri])
		if e.s.IsZero(ann) {
			return nil
		}
		if out.Len() >= e.opts.rowBudget() {
			return ErrRowBudget
		}
		// Distinct pairs of distinct inputs concatenate to distinct tuples.
		out.appendDistinct(t, ann)
		return nil
	}
	if len(lKeys) > 0 {
		if w := e.opts.workerCount(l.Len() + r.Len()); w > 1 {
			return out, parallelHashJoin(e.s, l, r, lKeys, rKeys, w, e.opts.rowBudget(), e.opts.Stop, combine, out)
		}
		return out, hashJoin(l, r, lKeys, rKeys, emit)
	}
	for li := range l.Tuples {
		for ri := range r.Tuples {
			if err := emit(li, ri); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// hashJoin builds a hash index over the right input's key columns and
// probes it with the left input's, invoking emit for every key match in
// left order, then ascending right position. Both sides hash their key
// columns in place; a candidate is confirmed column by column. Tuples with
// NULLs in any key column never join (SQL equality semantics).
func hashJoin[T any](l, r *Rel[T], lKeys, rKeys []int, emit func(li, ri int) error) error {
	idx := relation.NewIndex(r.Len())
	for i, rt := range r.Tuples {
		if !rt.HasNullCols(rKeys) {
			idx.Add(rt.HashCols(rKeys), i)
		}
	}
	for li, lt := range l.Tuples {
		if lt.HasNullCols(lKeys) {
			continue
		}
		for ri := idx.First(lt.HashCols(lKeys)); ri >= 0; ri = idx.Next(ri) {
			if !r.Tuples[ri].IdenticalCols(rKeys, lt, lKeys) {
				continue
			}
			if err := emit(li, ri); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *exec[T]) naturalJoin(l, r *Rel[T]) (*Rel[T], error) {
	shared, rOnly := ra.NaturalJoinCols(l.Schema, r.Schema)
	attrs := make([]relation.Attribute, 0, len(l.Schema.Attrs)+len(rOnly))
	attrs = append(attrs, l.Schema.Attrs...)
	for _, j := range rOnly {
		attrs = append(attrs, r.Schema.Attrs[j])
	}
	out := NewRel[T](relation.Schema{Attrs: attrs})
	combine := func(_ *relation.Tuple, li, ri int) (relation.Tuple, bool, error) {
		return concatCols(l.Tuples[li], r.Tuples[ri], rOnly), true, nil
	}
	var pairs int
	emit := func(li, ri int) error {
		if pairs++; pairs%stopPollStride == 0 {
			if err := e.opts.poll(); err != nil {
				return err
			}
		}
		// Unlike the θ-join emit there is no predicate to wait for (every
		// matched pair emits), so the zero-product prune runs first and
		// saves the output tuple construction for pruned pairs.
		ann := e.s.Times(l.Anns[li], r.Anns[ri])
		if e.s.IsZero(ann) {
			return nil
		}
		if out.Len() >= e.opts.rowBudget() {
			return ErrRowBudget
		}
		t, _, _ := combine(nil, li, ri)
		// Distinct: a matching pair agrees on the shared columns, so two
		// pairs producing the same output tuple would be identical inputs.
		out.appendDistinct(t, ann)
		return nil
	}
	if len(shared) == 0 {
		// Cross product.
		if crossExceedsBudget(l.Len(), r.Len(), e.opts.rowBudget()) {
			return nil, ErrRowBudget
		}
		for li := range l.Tuples {
			for ri := range r.Tuples {
				if err := emit(li, ri); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	lCols := make([]int, len(shared))
	rCols := make([]int, len(shared))
	for i, p := range shared {
		lCols[i], rCols[i] = p[0], p[1]
	}
	if e.opts.ForceNestedLoop {
		for li, lt := range l.Tuples {
			if lt.HasNullCols(lCols) {
				continue
			}
			for ri, rt := range r.Tuples {
				if rt.HasNullCols(rCols) || !lt.IdenticalCols(lCols, rt, rCols) {
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
		return out, parallelHashJoin(e.s, l, r, lCols, rCols, w, e.opts.rowBudget(), e.opts.Stop, combine, out)
	}
	return out, hashJoin(l, r, lCols, rCols, emit)
}

// union hash-merges both inputs, ⊕-combining annotations of identical
// tuples. Above the parallel threshold the merge is partitioned by tuple
// hash; identical tuples land in the same shard and merge in left-then-
// right order, matching the serial result annotation-for-annotation.
func (e *exec[T]) union(l, r *Rel[T]) *Rel[T] {
	nl := l.Len()
	if w := e.opts.workerCount(nl + r.Len()); w > 1 {
		out := NewRel[T](l.Schema)
		tupleAt := func(i int) relation.Tuple {
			if i < nl {
				return l.Tuples[i]
			}
			return r.Tuples[i-nl]
		}
		annAt := func(i int) (T, error) {
			if i < nl {
				return l.Anns[i], nil
			}
			return r.Anns[i-nl], nil
		}
		// annAt never fails, so neither does the build.
		_ = parallelBuild(e.s, w, nl+r.Len(), tupleAt, annAt, out)
		return out
	}
	out := newIndexedRel[T](l.Schema, nl+r.Len())
	for i, t := range l.Tuples {
		out.Add(e.s, t, l.Anns[i])
	}
	for i, t := range r.Tuples {
		out.Add(e.s, t, r.Anns[i])
	}
	return out
}

// diffSerial is the serial hash difference body, shared with the
// nested-loop fallback.
func (e *exec[T]) diffSerial(l, r *Rel[T]) *Rel[T] {
	out := NewRelCap[T](l.Schema, l.Len())
	for i, t := range l.Tuples {
		rAnn := e.s.Zero()
		if e.opts.ForceNestedLoop {
			for j, rt := range r.Tuples {
				if rt.Identical(t) {
					rAnn = r.Anns[j]
					break
				}
			}
		} else if j := r.Lookup(t); j >= 0 {
			rAnn = r.Anns[j]
		}
		ann := e.s.Minus(l.Anns[i], rAnn)
		if e.s.IsZero(ann) {
			continue
		}
		// Output is a subset of the distinct left input.
		out.appendDistinct(t, ann)
	}
	return out
}

// diff applies the semiring's Minus across L − R, probing R's hash index
// for the matching right annotation. Tuples whose combined annotation is
// (definitely) zero are pruned: under the set and counting semirings that
// is the classical set difference, while why-provenance keeps every left
// tuple annotated PrvL ∧ ¬PrvR (Section 6). Above the parallel threshold
// both sides are partitioned by full-tuple hash (matching tuples are
// identical, so they land in the same shard) and the shards are differenced
// concurrently.
func (e *exec[T]) diff(l, r *Rel[T]) *Rel[T] {
	if !e.opts.ForceNestedLoop {
		if w := e.opts.workerCount(l.Len() + r.Len()); w > 1 {
			return parallelDiff(e.s, l, r, w)
		}
	}
	return e.diffSerial(l, r)
}

// Intersect is the hash intersection L ∩ R: tuples present in both inputs,
// annotated with the ⊗-product of their annotations. The relational algebra
// of the paper has no intersection operator (q1 ∩ q2 ≡ q1 − (q1 − q2)), so
// the evaluator never emits this; it completes the physical set-operator
// family for engine clients.
func Intersect[T any](s Semiring[T], l, r *Rel[T]) (*Rel[T], error) {
	if !l.Schema.UnionCompatible(r.Schema) {
		return nil, fmt.Errorf("engine: intersection of incompatible schemas %s, %s", l.Schema, r.Schema)
	}
	out := NewRel[T](l.Schema)
	for i, t := range l.Tuples {
		j := r.Lookup(t)
		if j < 0 {
			continue
		}
		ann := s.Times(l.Anns[i], r.Anns[j])
		if s.IsZero(ann) {
			continue
		}
		out.appendDistinct(t, ann)
	}
	return out, nil
}

// crossExceedsBudget reports whether l*r > budget without computing the
// product, which can overflow int for two large inputs (and a wrapped
// product could slip past the budget check).
func crossExceedsBudget(l, r, budget int) bool {
	return l > 0 && r > budget/l
}

// concatCols returns lt followed by rt's values at rCols, in one allocation.
func concatCols(lt, rt relation.Tuple, rCols []int) relation.Tuple {
	out := make(relation.Tuple, len(lt), len(lt)+len(rCols))
	copy(out, lt)
	for _, j := range rCols {
		out = append(out, rt[j])
	}
	return out
}
