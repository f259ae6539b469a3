package engine

import (
	"runtime"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the parallel physical layer: a hash-partitioned parallel
// equi-join and a partitioned parallel build (deduplicating ⊕-merge) used
// by base scans and unions. Both rest on the same property: partitioning
// by the hash of the relevant key (join key, or whole tuple) makes the
// shards independent — every pair of joinable tuples, and every pair of
// duplicate tuples, lands in the same shard — so shards can be processed
// concurrently with no shared mutable state and their outputs concatenated.
// Shard assignment reads the fixed-seed shard hash (relation.Tuple.ShardHash
// / ShardHashCols), while each shard's own index chains on the seeded index
// hash (Hash / HashCols); shard outputs are concatenated in shard order, so
// results are deterministic across runs and processes.

// ParallelRowThreshold is the minimum combined input size (in rows) at
// which a physical operator fans out; smaller inputs stay serial because
// partitioning and goroutine overhead dominates. It is a variable so tests
// can force the parallel path on tiny inputs.
var ParallelRowThreshold = 4096

// NumWorkers returns the engine's natural parallelism: one worker per
// available CPU.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }

// workerCount decides how many workers an operator over rows input rows
// may use: 1 (serial) unless parallelism was requested and the input is
// large enough to amortize fan-out overhead.
func (o Options) workerCount(rows int) int {
	if o.Parallelism <= 1 || rows < ParallelRowThreshold {
		return 1
	}
	return o.Parallelism
}

// shardOf maps a shard hash to a shard in [0, shards).
func shardOf(h uint64, shards int) int { return int(h % uint64(shards)) }

// shardTuples hashes tupleAt(i) for every i < n in parallel — its columns
// cols, or the whole tuple when cols is nil (as in IdenticalCols) — and
// groups the positions into `workers` shards by fixed-seed shard hash.
// hashes[i] is position i's index hash, for the chains of its shard's own
// index. With dropNullKeys, positions with a NULL in any of cols are left
// out: a NULL join key matches nothing (SQL equality), exactly as the
// serial hash join skips it.
func shardTuples(workers, n int, tupleAt func(i int) relation.Tuple, cols []int, dropNullKeys bool) (pos [][]int, hashes []uint64) {
	hashes = make([]uint64, n)
	shard := make([]int, n)
	parallelRanges(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := tupleAt(i)
			switch {
			case dropNullKeys && t.HasNullCols(cols):
				shard[i] = -1
			case cols == nil:
				hashes[i], shard[i] = t.Hash(), shardOf(t.ShardHash(), workers)
			default:
				hashes[i], shard[i] = t.HashCols(cols), shardOf(t.ShardHashCols(cols), workers)
			}
		}
	})
	pos = make([][]int, workers)
	for i, s := range shard {
		if s >= 0 {
			pos[s] = append(pos[s], i)
		}
	}
	return pos, hashes
}

// parallelRanges splits [0, n) into one contiguous chunk per worker and
// processes the chunks concurrently.
func parallelRanges(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	// fn never errors, so a non-nil result can only be a recovered worker
	// panic; swallowing it would return partial shards as if complete, so
	// resurface it in the calling goroutine (the request-level recovery
	// boundary handles it there).
	if err := pool.ForEach(workers, workers, func(w int) error {
		fn(w*n/workers, (w+1)*n/workers)
		return nil
	}); err != nil {
		panic(err)
	}
}

// parallelHashJoin joins l and r on the given key columns across `workers`
// hash partitions: both inputs are partitioned by join-key hash, each shard
// builds a hash table over its right partition and probes it with its left
// partition, and the shard outputs are concatenated in shard order. combine
// builds the output tuple for a candidate pair, reporting false when the
// residual θ-condition rejects it. The row budget is enforced globally with
// an atomic counter. Output tuples are distinct because the inputs are
// (distinct pairs concatenate to distinct tuples), so the result needs no
// ⊕-merge.
func parallelHashJoin[T any](s Semiring[T], l, r *Rel[T], lKeys, rKeys []int, workers, maxRows int, stop func() error, combine pairFunc, out *Rel[T]) error {
	lPos, lHash := shardTuples(workers, l.Len(), l.tupleAt, lKeys, true)
	rPos, rHash := shardTuples(workers, r.Len(), r.tupleAt, rKeys, true)

	locals := make([]*Rel[T], workers)
	var rows int64
	err := pool.ForEach(workers, workers, func(w int) error {
		// The shard's index chains shard-local positions k (rPos[w][k] is
		// the right tuple), in ascending right order like the serial join.
		build := relation.NewIndex(len(rPos[w]))
		for k, ri := range rPos[w] {
			build.Add(rHash[ri], k)
		}
		local := NewRel[T](out.Schema)
		var scratch relation.Tuple
		var pairs int
		for _, li := range lPos[w] {
			lt := l.Tuples[li]
			for k := build.First(lHash[li]); k >= 0; k = build.Next(k) {
				ri := rPos[w][k]
				if !r.Tuples[ri].IdenticalCols(rKeys, lt, lKeys) {
					continue
				}
				if pairs++; stop != nil && pairs%stopPollStride == 0 {
					if err := stop(); err != nil {
						return err
					}
				}
				t, ok, err := combine(&scratch, li, ri)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				// As in the serial emit: prune definite-zero products after
				// the θ-predicate, before the budget.
				ann := s.Times(l.Anns[li], r.Anns[ri])
				if s.IsZero(ann) {
					continue
				}
				if atomic.AddInt64(&rows, 1) > int64(maxRows) {
					return ErrRowBudget
				}
				local.appendDistinct(t, ann)
			}
		}
		locals[w] = local
		return nil
	})
	if err != nil {
		return err
	}
	concatShards(locals, out)
	return nil
}

// parallelBuild constructs a deduplicated annotated relation from n
// (tuple, annotation) pairs by partitioning on the full-tuple hash: all
// duplicates of a tuple land in the same shard, each shard ⊕-merges its
// pairs in ascending input order (so merged annotations are identical to
// the serial build's), and the shard outputs concatenate in shard order. It
// backs the parallel base-scan and union paths.
func parallelBuild[T any](s Semiring[T], workers, n int, tupleAt func(i int) relation.Tuple, annAt func(i int) (T, error), out *Rel[T]) error {
	shards, hashes := shardTuples(workers, n, tupleAt, nil, false)
	locals := make([]*Rel[T], workers)
	err := pool.ForEach(workers, workers, func(w int) error {
		local := newIndexedRel[T](out.Schema, len(shards[w]))
		for _, i := range shards[w] {
			ann, err := annAt(i)
			if err != nil {
				return err
			}
			if s.IsZero(ann) {
				// Mirror the serial base scan's zero-leaf pruning (union
				// inputs are never zero, so only base scans are affected).
				continue
			}
			t := tupleAt(i)
			if j, added := local.index.FindOrAdd(hashes[i], local.Tuples, nil, t, nil); !added {
				local.Anns[j] = s.Plus(local.Anns[j], ann)
				continue
			}
			local.Tuples = append(local.Tuples, t)
			local.Anns = append(local.Anns, ann)
		}
		locals[w] = local
		return nil
	})
	if err != nil {
		return err
	}
	concatShards(locals, out)
	return nil
}

// parallelDiff is the hash difference L − R across `workers` partitions:
// both sides are sharded by full-tuple hash (an identical right tuple — the
// only kind that affects a left tuple — lands in the same shard), each
// shard indexes its right partition and probes it with its left partition
// in left order, and shard outputs concatenate in shard order. NULLs are
// not special here: the difference matches tuples by Identical, exactly
// like the serial probe. Deterministic for a fixed Parallelism.
func parallelDiff[T any](s Semiring[T], l, r *Rel[T], workers int) *Rel[T] {
	lPos, lHash := shardTuples(workers, l.Len(), l.tupleAt, nil, false)
	rPos, rHash := shardTuples(workers, r.Len(), r.tupleAt, nil, false)
	out := NewRel[T](l.Schema)
	locals := make([]*Rel[T], workers)
	// Shards share no mutable state and annAt never fails, so a non-nil
	// result can only be a recovered worker panic; resurface it rather
	// than concatenate partial shards (see parallelRanges).
	err := pool.ForEach(workers, workers, func(w int) error {
		// The shard's index chains shard-local positions k (rPos[w][k] is
		// the right tuple).
		idx := relation.NewIndex(len(rPos[w]))
		for k, ri := range rPos[w] {
			idx.Add(rHash[ri], k)
		}
		local := NewRelCap[T](l.Schema, len(lPos[w]))
		for _, li := range lPos[w] {
			lt := l.Tuples[li]
			rAnn := s.Zero()
			for k := idx.First(lHash[li]); k >= 0; k = idx.Next(k) {
				if ri := rPos[w][k]; r.Tuples[ri].Identical(lt) {
					rAnn = r.Anns[ri]
					break
				}
			}
			ann := s.Minus(l.Anns[li], rAnn)
			if s.IsZero(ann) {
				continue
			}
			local.appendDistinct(lt, ann)
		}
		locals[w] = local
		return nil
	})
	if err != nil {
		panic(err)
	}
	concatShards(locals, out)
	return out
}

// parallelGroupBy is γ across `workers` hash partitions of the group key:
// every member of a group shares the key, so a group lives entirely in one
// shard and each shard aggregates its groups independently, visiting members
// in input order (so order-sensitive aggregates match the serial result
// row-for-row). Shards emit rows in first-occurrence order of their group
// keys and the shard outputs concatenate in shard order — deterministic for
// a fixed Parallelism, like the other parallel operators.
func parallelGroupBy[T any](s Semiring[T], g *ra.GroupBy, in *Rel[T], gIdx, aIdx []int, outSchema relation.Schema, workers int) (*Rel[T], error) {
	shards, hashes := shardTuples(workers, in.Len(), in.tupleAt, gIdx, false)
	out := NewRel[T](outSchema)
	locals := make([]*Rel[T], workers)
	err := pool.ForEach(workers, workers, func(w int) error {
		local := NewRel[T](outSchema)
		if err := aggregateGroups(s, g, in.Tuples, shards[w], hashes, gIdx, aIdx, local); err != nil {
			return err
		}
		locals[w] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	concatShards(locals, out)
	return out, nil
}

// concatShards appends the shard-local relations to out in shard order. The
// merged index is left nil and rebuilt lazily on first probe.
func concatShards[T any](locals []*Rel[T], out *Rel[T]) {
	total := 0
	for _, l := range locals {
		total += l.Len()
	}
	out.Tuples = make([]relation.Tuple, 0, total)
	out.Anns = make([]T, 0, total)
	for _, l := range locals {
		out.Tuples = append(out.Tuples, l.Tuples...)
		out.Anns = append(out.Anns, l.Anns...)
	}
}
