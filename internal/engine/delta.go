package engine

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/relation"
)

// This file is the update half of the delta subsystem: ApplyDelta generalizes
// deletion-only deltas to full incremental view maintenance over
// signed counting-semiring deltas — deletions, insertions, and updates
// expressed as delete+insert — in the style of Berkholz–Keppeler–Schweikardt's
// FO+MOD-under-updates maintenance. The per-operator delta rules in
// prepared.go were already signed (a Diff can resurrect tuples, so deletions
// alone force bidirectional propagation); what insertion adds is:
//
//   - base scans emit +1 for inserted tuples alongside −1 for removed ids,
//   - Commit folds insertions into the base Database (assigning fresh
//     TupleIDs in caller order, so replay is deterministic) and registers the
//     new ids with the retained scan position maps,
//   - retained outputs may now grow without bound across commits, so every
//     ApplyDelta re-checks the maxSafeCount invariant that PrepareDiff
//     established: a delta that would push any retained count past the
//     exact-arithmetic bound is refused with ErrNotIncremental before any
//     state changes, and the prepared object remains usable.
//
// A failed ApplyDelta (validation, budget, saturation) never mutates retained
// state: deltas are computed into a per-call memo and only Commit folds them
// in. Committing insertions mutates the underlying *relation.Database — the
// prepared object must own its instance (clone it first) when insertions are
// in play; deletion-only users (core.ShrinkGreedy) share
// read-only instances as before.

// Insert is one tuple insertion for ApplyDelta: the base relation name and
// the tuple value. The fresh TupleID is assigned at Commit (see
// DeltaResult.InsertedIDs).
type Insert struct {
	Rel   string
	Tuple relation.Tuple
}

// maxSafeCount bounds every retained derivation count so the exact ℤ-ring
// delta arithmetic cannot overflow int64: with counts ≤ 2³⁰, per-tuple
// delta magnitudes stay ≤ 2³¹, the join rule's pairwise products stay
// ≤ 2⁶², and every partial sum the accumulation loops can form stays well
// inside the int64 range. PrepareDiff establishes the invariant (plans
// beyond it fall back to from-scratch evaluation) and ApplyDelta re-checks it
// before any delta may be committed.
const maxSafeCount = 1 << 30

// pollStep is the delta propagation loops' budget poll: every
// stopPollStride delta pairs/members, check the prepared Options' stop
// hook so a storm of wide deltas stays interruptible.
func (c *deltaCtx) pollStep() error {
	if c.ops++; c.ops%stopPollStride != 0 || c.poll == nil {
		return nil
	}
	return c.poll()
}

// SetStop rebinds the budget stop hook consulted by subsequent ApplyDelta
// calls (and their delta-propagation polls). Long-lived sessions call this
// per request so a prepared object built under one request's budget does not
// keep polling that request's expired context.
func (p *PreparedDiff) SetStop(stop func() error) { p.opts.Stop = stop }

// ApplyDelta propagates one signed update — deleting the given base tuples
// and inserting the given new ones — through the retained operator DAG and
// reports the resulting state of Q1 − Q2 and Q2 − Q1. Updates are expressed
// as delete+insert of the same relation. Ids already removed by committed
// deltas, unknown ids and duplicates are ignored; insertions into unknown
// relations or with the wrong arity are errors. The work is proportional to
// the delta's footprint in each operator, not to the database or plan size.
//
// The result is relative to the current epoch: multiple uncommitted results
// are independent what-if candidates, and Commit folds exactly one of them
// into the base (assigning TupleIDs to its insertions). A delta that would
// saturate a retained derivation count is refused with ErrNotIncremental,
// leaving the prepared state untouched and usable.
func (p *PreparedDiff) ApplyDelta(removed []relation.TupleID, inserted []Insert) (*DeltaResult, error) {
	faults.Inject(faults.EngineEval)
	ids := make([]relation.TupleID, 0, len(removed))
	seen := make(map[relation.TupleID]bool, len(removed))
	for _, id := range removed {
		if seen[id] || p.removed[id] {
			continue
		}
		if _, _, ok := p.db.Lookup(id); !ok {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	// Sorted ids make every delta's tuple order — and therefore committed
	// append order — deterministic; insertions keep caller order so the
	// TupleIDs Commit assigns are deterministic too.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	byRel := make(map[string][]relation.Tuple)
	for _, ins := range inserted {
		r := p.db.Relation(ins.Rel)
		if r == nil {
			return nil, fmt.Errorf("engine: insert into unknown relation %q", ins.Rel)
		}
		if len(ins.Tuple) != r.Schema.Arity() {
			return nil, fmt.Errorf("engine: arity mismatch inserting into %q: got %d want %d",
				ins.Rel, len(ins.Tuple), r.Schema.Arity())
		}
		byRel[ins.Rel] = append(byRel[ins.Rel], ins.Tuple)
	}
	ctx := &deltaCtx{
		removed:  ids,
		inserted: byRel,
		poll:     p.opts.poll,
		memo:     make(map[pnode]*Rel[Count], len(p.nodes)),
		aux:      map[pnode][]groupChange{},
	}
	d12, err := p.d12.delta(ctx)
	if err != nil {
		return nil, err
	}
	d21, err := p.d21.delta(ctx)
	if err != nil {
		return nil, err
	}
	// Insertions grow counts, so the PrepareDiff-time maxSafeCount invariant
	// must be re-established before this delta may ever be committed.
	// p.nodes orders children before parents, which makes the check sound
	// even though all deltas are already computed: an operator's delta
	// arithmetic can only overflow if some child's candidate count already
	// exceeds maxSafeCount, and that child is inspected — with exact values
	// — before its parent's garbage could be believed.
	for _, n := range p.nodes {
		d, ok := ctx.memo[n]
		if !ok {
			continue
		}
		base := n.rel()
		for i, t := range d.Tuples {
			ch := d.Anns[i]
			if ch <= 0 {
				continue
			}
			if exactAdd(countOf(base, t), ch) > maxSafeCount {
				return nil, fmt.Errorf("%w: delta would push derivation counts past the exact-arithmetic bound", ErrNotIncremental)
			}
		}
	}
	return &DeltaResult{
		p: p, epoch: p.epoch, ctx: ctx,
		inserts: append([]Insert(nil), inserted...),
		size12:  p.d12.live + supportShift(p.d12.out, d12),
		size21:  p.d21.live + supportShift(p.d21.out, d21),
	}, nil
}

// InsertedIDs returns the TupleIDs Commit assigned to this result's
// insertions, in the order they were passed to ApplyDelta. It is nil before
// Commit.
func (r *DeltaResult) InsertedIDs() []relation.TupleID {
	return r.insertedIDs
}
