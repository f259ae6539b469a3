package engine

import (
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
)

// groupPlan resolves γ's group and aggregate columns against the input
// schema and derives the output schema. It is shared by the serial and
// parallel evaluators and by the prepared (delta-incremental) operator.
func groupPlan(g *ra.GroupBy, in relation.Schema) (gIdx, aIdx []int, out relation.Schema, err error) {
	gIdx = make([]int, len(g.GroupCols))
	for i, c := range g.GroupCols {
		j, err := in.Resolve(c)
		if err != nil {
			return nil, nil, relation.Schema{}, err
		}
		gIdx[i] = j
	}
	aIdx = make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Attr == "" {
			if a.Func != ra.Count {
				return nil, nil, relation.Schema{}, fmt.Errorf("engine: %s requires an attribute", a.Func)
			}
			aIdx[i] = -1
			continue
		}
		j, err := in.Resolve(a.Attr)
		if err != nil {
			return nil, nil, relation.Schema{}, err
		}
		aIdx[i] = j
	}
	attrs := make([]relation.Attribute, 0, len(gIdx)+len(g.Aggs))
	for i, j := range gIdx {
		attrs = append(attrs, relation.Attribute{Name: g.GroupCols[i], Type: in.Attrs[j].Type})
	}
	for i, a := range g.Aggs {
		typ := relation.KindFloat
		if a.Func == ra.Count {
			typ = relation.KindInt
		} else if aIdx[i] >= 0 && (a.Func == ra.Sum || a.Func == ra.Min || a.Func == ra.Max) {
			typ = in.Attrs[aIdx[i]].Type
		}
		attrs = append(attrs, relation.Attribute{Name: a.As, Type: typ})
	}
	return gIdx, aIdx, relation.Schema{Attrs: attrs}, nil
}

// groupBy evaluates γ over the support of the input (the distinct tuples),
// hash-partitioning into groups. Output rows are annotated One; the
// semiring gate in exec.node restricts this to semirings whose annotations
// carry no per-subinstance information (set, counting). Above the parallel
// threshold the groups are hash-partitioned by group key across workers
// (a group lives entirely in one shard, so each shard aggregates its groups
// independently over members in input order) and the shard outputs
// concatenate in shard order — deterministic for a fixed Parallelism.
func (e *exec[T]) groupBy(g *ra.GroupBy, in *Rel[T]) (*Rel[T], error) {
	gIdx, aIdx, outSchema, err := groupPlan(g, in.Schema)
	if err != nil {
		return nil, err
	}
	if w := e.opts.workerCount(in.Len()); w > 1 {
		return parallelGroupBy(e.s, g, in, gIdx, aIdx, outSchema, w)
	}
	out := NewRel[T](outSchema)
	pos := make([]int, in.Len())
	hashes := make([]uint64, in.Len())
	for i, t := range in.Tuples {
		pos[i] = i
		hashes[i] = t.HashCols(gIdx)
	}
	if err := aggregateGroups(e.s, g, in.Tuples, pos, hashes, gIdx, aIdx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// aggregateGroups groups the tuples at positions pos (ascending) by their
// gIdx columns, whose hashes are hashes[p], and appends one output row per
// group to out — the group key followed by the aggregates over its members
// in input order — in first-occurrence order of the group keys. It is the
// body of the serial γ and of each shard of the parallel one.
func aggregateGroups[T any](s Semiring[T], g *ra.GroupBy, tuples []relation.Tuple, pos []int, hashes []uint64, gIdx, aIdx []int, out *Rel[T]) error {
	// groups[k] lists the members of the k-th group and firsts[k] is its
	// first member, which carries the group key; byKey chains group
	// numbers by key hash.
	var groups [][]relation.Tuple
	var firsts []relation.Tuple
	byKey := relation.NewIndex(0)
	for _, p := range pos {
		t := tuples[p]
		k, added := byKey.FindOrAdd(hashes[p], firsts, gIdx, t, gIdx)
		if added {
			groups = append(groups, nil)
			firsts = append(firsts, t)
		}
		groups[k] = append(groups[k], t)
	}
	for k, members := range groups {
		row := make(relation.Tuple, 0, len(gIdx)+len(g.Aggs))
		for _, j := range gIdx {
			row = append(row, firsts[k][j])
		}
		for i, a := range g.Aggs {
			v, err := computeAgg(a.Func, aIdx[i], members)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		// One output row per distinct group key.
		out.appendDistinct(row, s.One())
	}
	return nil
}

func computeAgg(f ra.AggFunc, col int, members []relation.Tuple) (relation.Value, error) {
	if f == ra.Count {
		if col < 0 {
			return relation.Int(int64(len(members))), nil
		}
		n := 0
		for _, t := range members {
			if !t[col].IsNull() {
				n++
			}
		}
		return relation.Int(int64(n)), nil
	}
	var vals []relation.Value
	for _, t := range members {
		if !t[col].IsNull() {
			vals = append(vals, t[col])
		}
	}
	if len(vals) == 0 {
		return relation.Null(), nil
	}
	switch f {
	case ra.Sum, ra.Avg:
		acc := vals[0]
		for _, v := range vals[1:] {
			var err error
			acc, err = relation.Add(acc, v)
			if err != nil {
				return relation.Null(), err
			}
		}
		if f == ra.Sum {
			return acc, nil
		}
		return relation.Div(acc, relation.Int(int64(len(vals))))
	case ra.Min, ra.Max:
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := v.Compare(best)
			if !ok {
				return relation.Null(), fmt.Errorf("engine: incomparable values in %s", f)
			}
			if (f == ra.Min && c < 0) || (f == ra.Max && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return relation.Null(), fmt.Errorf("engine: unknown aggregate %v", f)
}
