package engine

import (
	"errors"
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the delta-incremental evaluation subsystem: PrepareDiff
// evaluates Q1 and Q2 once on the full database under the counting semiring
// and retains per-operator state — base-scan relations with a TupleID →
// position map, join hash tables partitioned by join key, the output (with
// its lazily-built tuple index) of every union/difference node, and per-group
// membership for γ. PreparedDiff.ApplyDelta (delta.go) then answers "what do
// Q1 − Q2 and Q2 − Q1 look like after this update" — deletions, insertions,
// and updates expressed as delete+insert — by propagating only the signed
// delta up the operator DAG:
//
//   - scans translate removed ids into per-tuple count decrements and
//     inserted tuples into increments,
//   - joins probe the retained hash table of the *other* side
//     (Δ(L⋈R) = ΔL⋈R + L⋈ΔR + ΔL⋈ΔR over signed counts),
//   - unions add the child deltas,
//   - differences re-derive only the tuples whose left or right count
//     changed, from the retained child outputs (the Section-6 rule is not
//     linear, so the delta consults old and new counts),
//   - γ re-aggregates only the groups whose support intersects the delta.
//
// Derivation counts are the bookkeeping that makes deletion cheap: a deleted
// input tuple decrements the counts it contributed to, and an output tuple
// leaves the result exactly when its count reaches zero — no recomputation.
// Because Diff nodes can also *resurrect* tuples (deleting right-side
// derivations un-suppresses a left tuple), deltas are signed and retained
// outputs may gain tuples on Commit.
//
// A DeltaResult is evaluated against the prepared object's current base
// instance (initially D). Commit folds the delta into the retained state, so
// a shrink loop pays O(|step delta|) per iteration instead of re-evaluating
// the whole query; uncommitted results are independent, which is what the
// candidate accept/reject checks need.

// ErrNotIncremental is returned by PrepareDiff — and by ApplyDelta for
// updates that would break the invariant afterwards — when the plan or its
// evaluation state cannot be maintained incrementally (currently: derivation
// counts beyond maxSafeCount, where exact count arithmetic could overflow).
// Callers fall back to from-scratch evaluation, or re-prepare.
var ErrNotIncremental = errors.New("engine: plan is not delta-incrementalizable")

// ErrStaleDelta is returned by DeltaResult.Commit when the prepared state
// advanced (another result was committed) after this result was computed.
// Committing a stale delta would corrupt the retained per-operator state.
var ErrStaleDelta = errors.New("engine: delta result is stale: prepared state has advanced")

// zsum is the ring ℤ used for update deltas: signed count changes merge by
// plain addition. No saturation is needed — PrepareDiff and ApplyDelta keep
// every retained count within maxSafeCount, which bounds every delta product
// and partial sum inside int64.
type zsumRing struct{}

func (zsumRing) Zero() Count                          { return 0 }
func (zsumRing) One() Count                           { return 1 }
func (zsumRing) Plus(a, b Count) Count                { return exactAdd(a, b) }
func (zsumRing) Times(a, b Count) Count               { return exactMul(a, b) }
func (zsumRing) Minus(l, r Count) Count               { return l - r }
func (zsumRing) IsZero(a Count) bool                  { return a == 0 }
func (zsumRing) Leaf(relation.TupleID) (Count, error) { return 1, nil }
func (zsumRing) Aggregates() bool                     { return false }
func (zsumRing) Name() string                         { return "zsum" }

var zsum zsumRing

// exactAdd and exactMul are the delta subsystem's ℤ-ring count arithmetic.
// Unlike Counting.Plus/Times they do not saturate — deliberately: signed
// delta arithmetic must be invertible, and it cannot overflow because
// PrepareDiff and ApplyDelta keep every retained count within maxSafeCount,
// which bounds every product and partial sum the delta rules form.

func exactAdd(a, b Count) Count {
	//lint:saturated exact ℤ-ring delta arithmetic; the maxSafeCount invariant bounds operands, so no overflow
	return a + b
}

func exactMul(a, b Count) Count {
	//lint:saturated exact ℤ-ring delta arithmetic; the maxSafeCount invariant bounds operands, so no overflow
	return a * b
}

// deltaCtx carries one ApplyDelta computation: the (sorted, deduplicated,
// still-live) removed ids, the inserted tuples bucketed by base relation,
// and the per-node memoized deltas. Nodes are shared between the two
// difference directions and between Q1 and Q2 (base scans), so memoization
// keeps every node's delta computed exactly once per call.
type deltaCtx struct {
	removed  []relation.TupleID
	inserted map[string][]relation.Tuple
	poll     func() error // budget stop hook, polled via pollStep
	ops      int
	memo     map[pnode]*Rel[Count]
	aux      map[pnode][]groupChange
}

// pnode is one prepared operator: retained base output plus delta/commit.
type pnode interface {
	// rel is the retained output on the current base instance. It may
	// contain zombie entries (count 0) left behind by committed deletions;
	// consumers must read counts, never assume presence implies membership.
	rel() *Rel[Count]
	// delta computes the signed count changes this operator's output
	// undergoes for ctx's update (removed ids + inserted tuples), memoized
	// in ctx.
	delta(ctx *deltaCtx) (*Rel[Count], error)
	// commit folds the memoized delta of ctx into the retained state.
	commit(ctx *deltaCtx)
}

// countOf reads a tuple's retained count (0 when absent or zombie).
func countOf(r *Rel[Count], t relation.Tuple) Count {
	if i := r.Lookup(t); i >= 0 {
		return r.Anns[i]
	}
	return 0
}

// deltaOf reads a tuple's signed delta (0 when untouched).
func deltaOf(d *Rel[Count], t relation.Tuple) Count {
	if d == nil {
		return 0
	}
	if i := d.Lookup(t); i >= 0 {
		return d.Anns[i]
	}
	return 0
}

// applyDelta folds signed count changes into a retained output. Tuples whose
// count reaches zero stay as zombies (removing them would shift positions
// out from under the retained join/group indexes); tuples entering the
// output are appended and indexed.
func applyDelta(base *Rel[Count], d *Rel[Count]) {
	for i, t := range d.Tuples {
		c := d.Anns[i]
		if c == 0 {
			continue
		}
		if j := base.Lookup(t); j >= 0 {
			base.Anns[j] = exactAdd(base.Anns[j], c)
			continue
		}
		base.Add(zsum, t, c)
	}
}

// pscan is a retained base-relation scan: the deduplicated annotated scan
// output plus the id → output-position map deletions are translated
// through. Insertions enter here as +1 count increments; Commit registers
// their freshly-assigned ids in pos.
type pscan struct {
	name string
	out  *Rel[Count]
	pos  map[relation.TupleID]int
}

func (n *pscan) rel() *Rel[Count] { return n.out }

func (n *pscan) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	d := NewRel[Count](n.out.Schema)
	for _, id := range ctx.removed {
		p, ok := n.pos[id]
		if !ok {
			continue // a tuple of some other relation
		}
		d.Add(zsum, n.out.Tuples[p], -1)
	}
	for _, t := range ctx.inserted[n.name] {
		d.Add(zsum, t, 1)
	}
	ctx.memo[n] = d
	return d, nil
}

func (n *pscan) commit(ctx *deltaCtx) { applyDelta(n.out, ctx.memo[n]) }

// pselect filters the child delta through the retained compiled predicate.
type pselect struct {
	in   pnode
	pred ra.CompiledExpr
	out  *Rel[Count]
}

func (n *pselect) rel() *Rel[Count] { return n.out }

func (n *pselect) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	din, err := n.in.delta(ctx)
	if err != nil {
		return nil, err
	}
	d := NewRel[Count](n.out.Schema)
	for i, t := range din.Tuples {
		c := din.Anns[i]
		if c == 0 {
			continue
		}
		v, err := n.pred(t)
		if err != nil {
			return nil, err
		}
		if ra.Truthy(v) {
			d.Add(zsum, t, c)
		}
	}
	ctx.memo[n] = d
	return d, nil
}

func (n *pselect) commit(ctx *deltaCtx) { applyDelta(n.out, ctx.memo[n]) }

// pproject projects the child delta, merging counts of collapsing tuples.
type pproject struct {
	in   pnode
	idxs []int
	out  *Rel[Count]
}

func (n *pproject) rel() *Rel[Count] { return n.out }

func (n *pproject) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	din, err := n.in.delta(ctx)
	if err != nil {
		return nil, err
	}
	d := NewRel[Count](n.out.Schema)
	for i, t := range din.Tuples {
		if c := din.Anns[i]; c != 0 {
			d.addProjected(zsum, t, n.idxs, c)
		}
	}
	ctx.memo[n] = d
	return d, nil
}

func (n *pproject) commit(ctx *deltaCtx) { applyDelta(n.out, ctx.memo[n]) }

// prename requalifies the child delta's schema; tuple values are unchanged,
// so the delta aliases the child's (deltas are read-only once built).
type prename struct {
	in  pnode
	out *Rel[Count]
}

func (n *prename) rel() *Rel[Count] { return n.out }

func (n *prename) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	din, err := n.in.delta(ctx)
	if err != nil {
		return nil, err
	}
	d := &Rel[Count]{Schema: n.out.Schema, Tuples: din.Tuples, Anns: din.Anns, index: din.index}
	ctx.memo[n] = d
	return d, nil
}

func (n *prename) commit(ctx *deltaCtx) { applyDelta(n.out, ctx.memo[n]) }

// punion adds the two child deltas.
type punion struct {
	l, r pnode
	out  *Rel[Count]
}

func (n *punion) rel() *Rel[Count] { return n.out }

func (n *punion) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	dl, err := n.l.delta(ctx)
	if err != nil {
		return nil, err
	}
	dr, err := n.r.delta(ctx)
	if err != nil {
		return nil, err
	}
	d := NewRel[Count](n.out.Schema)
	for i, t := range dl.Tuples {
		if c := dl.Anns[i]; c != 0 {
			d.Add(zsum, t, c)
		}
	}
	for i, t := range dr.Tuples {
		if c := dr.Anns[i]; c != 0 {
			d.Add(zsum, t, c)
		}
	}
	ctx.memo[n] = d
	return d, nil
}

func (n *punion) commit(ctx *deltaCtx) { applyDelta(n.out, ctx.memo[n]) }

// pjoin retains both children's join-key hash tables and expands
// Δ(L⋈R) = ΔL⋈R + L⋈ΔR + ΔL⋈ΔR: each delta side probes the *other* side's
// retained table, and the cross term pairs the two (small) deltas. With no
// equi keys (cross products, residual-only θ-joins) the probes degrade to a
// scan of the other side's retained output — still proportional to one
// side's size, not the whole plan.
type pjoin struct {
	l, r         pnode
	lKeys, rKeys []int // equi-join key columns; empty → no hash keys
	natural      bool
	rOnly        []int           // natural join: right-side columns appended
	pred         ra.CompiledExpr // residual θ-condition over the concat, or nil
	scratch      relation.Tuple  // reused buffer the residual runs on
	out          *Rel[Count]
	lIdx, rIdx   *relation.Index // child output positions by key hash
	lSynced      int             // child output positions already indexed
	rSynced      int
}

func (n *pjoin) rel() *Rel[Count] { return n.out }

// sync indexes child output positions appended by commits since the last
// delta (tuples resurrected through a Diff keep their old, already-indexed
// position; only genuinely new tuples appear past the watermark).
func (n *pjoin) sync() {
	if len(n.lKeys) == 0 {
		return
	}
	if n.lIdx == nil {
		n.lIdx, n.rIdx = relation.NewIndex(n.l.rel().Len()), relation.NewIndex(n.r.rel().Len())
	}
	n.lSynced = syncIndex(n.lIdx, n.l.rel(), n.lKeys, n.lSynced)
	n.rSynced = syncIndex(n.rIdx, n.r.rel(), n.rKeys, n.rSynced)
}

// syncIndex indexes rel's positions from `from` on by their key columns
// (skipping NULL keys, which never join) and returns the new watermark.
func syncIndex(idx *relation.Index, rel *Rel[Count], keys []int, from int) int {
	for i := from; i < rel.Len(); i++ {
		if t := rel.Tuples[i]; !t.HasNullCols(keys) {
			idx.Add(t.HashCols(keys), i)
		}
	}
	return rel.Len()
}

// probe calls fn, in ascending position order, for every position p of
// rel (indexed by idx on its relKeys columns) whose key columns equal t's
// tKeys columns. A t with a NULL key column matches nothing.
func probe(idx *relation.Index, rel *Rel[Count], relKeys []int, t relation.Tuple, tKeys []int, fn func(p int) error) error {
	if t.HasNullCols(tKeys) {
		return nil
	}
	for p := idx.First(t.HashCols(tKeys)); p >= 0; p = idx.Next(p) {
		if !rel.Tuples[p].IdenticalCols(relKeys, t, tKeys) {
			continue
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// outTuple builds the output tuple for a matched pair.
func (n *pjoin) outTuple(lt, rt relation.Tuple) relation.Tuple {
	if n.natural {
		return concatCols(lt, rt, n.rOnly)
	}
	return lt.Concat(rt)
}

// accepts applies the residual θ-condition, if any, to a pair. It runs on
// the node's reused scratch buffer, so a rejected pair allocates nothing.
func (n *pjoin) accepts(lt, rt relation.Tuple) (bool, error) {
	if n.pred == nil {
		return true, nil
	}
	n.scratch = append(append(n.scratch[:0], lt...), rt...)
	v, err := n.pred(n.scratch)
	if err != nil {
		return false, err
	}
	return ra.Truthy(v), nil
}

// emitDelta adds one pair's signed contribution, applying the residual
// θ-condition. It polls the budget stop hook: the pair loops are the delta
// propagation's only superlinear work (an inserted tuple can match
// everything on the other side), so this is where a wide delta must stay
// interruptible.
func (n *pjoin) emitDelta(ctx *deltaCtx, d *Rel[Count], lt, rt relation.Tuple, c Count) error {
	if err := ctx.pollStep(); err != nil {
		return err
	}
	if c == 0 {
		return nil
	}
	if ok, err := n.accepts(lt, rt); err != nil || !ok {
		return err
	}
	d.Add(zsum, n.outTuple(lt, rt), c)
	return nil
}

func (n *pjoin) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	dl, err := n.l.delta(ctx)
	if err != nil {
		return nil, err
	}
	dr, err := n.r.delta(ctx)
	if err != nil {
		return nil, err
	}
	n.sync()
	d := NewRel[Count](n.out.Schema)
	lrel, rrel := n.l.rel(), n.r.rel()
	keyed := len(n.lKeys) > 0
	// ΔL ⋈ R (retained right state).
	for i, lt := range dl.Tuples {
		c := dl.Anns[i]
		if c == 0 {
			continue
		}
		if keyed {
			if err := probe(n.rIdx, rrel, n.rKeys, lt, n.lKeys, func(ri int) error {
				return n.emitDelta(ctx, d, lt, rrel.Tuples[ri], exactMul(c, rrel.Anns[ri]))
			}); err != nil {
				return nil, err
			}
			continue
		}
		for ri := range rrel.Tuples {
			if err := n.emitDelta(ctx, d, lt, rrel.Tuples[ri], exactMul(c, rrel.Anns[ri])); err != nil {
				return nil, err
			}
		}
	}
	// L (retained left state) ⋈ ΔR.
	for j, rt := range dr.Tuples {
		c := dr.Anns[j]
		if c == 0 {
			continue
		}
		if keyed {
			if err := probe(n.lIdx, lrel, n.lKeys, rt, n.rKeys, func(li int) error {
				return n.emitDelta(ctx, d, lrel.Tuples[li], rt, exactMul(lrel.Anns[li], c))
			}); err != nil {
				return nil, err
			}
			continue
		}
		for li := range lrel.Tuples {
			if err := n.emitDelta(ctx, d, lrel.Tuples[li], rt, exactMul(lrel.Anns[li], c)); err != nil {
				return nil, err
			}
		}
	}
	// ΔL ⋈ ΔR: both sides changed; the product of two (negative) deletions
	// adds back the doubly-subtracted pairs.
	for i, lt := range dl.Tuples {
		ci := dl.Anns[i]
		if ci == 0 {
			continue
		}
		if keyed && lt.HasNullCols(n.lKeys) {
			continue
		}
		for j, rt := range dr.Tuples {
			cj := dr.Anns[j]
			if cj == 0 {
				continue
			}
			if keyed && (rt.HasNullCols(n.rKeys) || !lt.IdenticalCols(n.lKeys, rt, n.rKeys)) {
				continue
			}
			if err := n.emitDelta(ctx, d, lt, rt, exactMul(ci, cj)); err != nil {
				return nil, err
			}
		}
	}
	ctx.memo[n] = d
	return d, nil
}

func (n *pjoin) commit(ctx *deltaCtx) { applyDelta(n.out, ctx.memo[n]) }

// pdiff applies the counting-semiring Section-6 difference rule
// out(t) = L(t) if R(t) == 0 else 0. The rule is not linear, so the delta
// re-derives exactly the tuples whose left or right count changed, reading
// old counts from the retained child outputs. live tracks the support size
// so emptiness checks are O(1).
type pdiff struct {
	l, r pnode
	out  *Rel[Count]
	live int
}

func (n *pdiff) rel() *Rel[Count] { return n.out }

func (n *pdiff) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	dl, err := n.l.delta(ctx)
	if err != nil {
		return nil, err
	}
	dr, err := n.r.delta(ctx)
	if err != nil {
		return nil, err
	}
	d := NewRel[Count](n.out.Schema)
	lrel, rrel := n.l.rel(), n.r.rel()
	seen := NewRel[Count](n.out.Schema)
	process := func(t relation.Tuple) {
		if seen.Lookup(t) >= 0 {
			return
		}
		seen.appendDistinct(t, 0)
		oldL := countOf(lrel, t)
		oldR := countOf(rrel, t)
		newL := exactAdd(oldL, deltaOf(dl, t))
		newR := exactAdd(oldR, deltaOf(dr, t))
		oldOut, newOut := oldL, newL
		if oldR != 0 {
			oldOut = 0
		}
		if newR != 0 {
			newOut = 0
		}
		if ch := newOut - oldOut; ch != 0 {
			d.Add(zsum, t, ch)
		}
	}
	for _, t := range dl.Tuples {
		process(t)
	}
	for _, t := range dr.Tuples {
		process(t)
	}
	ctx.memo[n] = d
	return d, nil
}

func (n *pdiff) commit(ctx *deltaCtx) {
	d := ctx.memo[n]
	for i, t := range d.Tuples {
		ch := d.Anns[i]
		if ch == 0 {
			continue
		}
		old := countOf(n.out, t)
		now := exactAdd(old, ch)
		switch {
		case old == 0 && now != 0:
			n.live++
		case old != 0 && now == 0:
			n.live--
		}
	}
	applyDelta(n.out, d)
}

// groupChange records one affected group for commit: the group number and
// its new output row (nil when the group's support emptied).
type groupChange struct {
	group int
	row   relation.Tuple
}

// pgroup retains γ's group membership (group → input output positions)
// and the current output row per live group. Groups are numbered in
// first-occurrence order; byKey chains group numbers by key hash. A delta
// re-aggregates only the groups whose support intersects the changed
// input tuples; untouched groups keep their retained rows.
type pgroup struct {
	in       pnode
	aggs     []ra.AggSpec
	gIdx     []int
	aIdx     []int
	out      *Rel[Count]
	keys     []relation.Tuple // group → its key values
	members  [][]int          // group → input positions
	rows     []relation.Tuple // group → current output row (nil when empty)
	byKey    *relation.Index
	inSynced int
}

func (n *pgroup) rel() *Rel[Count] { return n.out }

// group returns the number of t's group (by its gIdx columns), creating
// the group when t's key is new.
func (n *pgroup) group(t relation.Tuple) int {
	g, added := n.byKey.FindOrAdd(t.HashCols(n.gIdx), n.keys, nil, t, n.gIdx)
	if !added {
		return g
	}
	n.keys = append(n.keys, t.Project(n.gIdx))
	n.members = append(n.members, nil)
	n.rows = append(n.rows, nil)
	return g
}

// sync assigns input positions appended since the last delta to groups.
func (n *pgroup) sync() {
	inrel := n.in.rel()
	for p := n.inSynced; p < inrel.Len(); p++ {
		g := n.group(inrel.Tuples[p])
		n.members[g] = append(n.members[g], p)
	}
	n.inSynced = inrel.Len()
}

// aggregate builds a group's output row over the given members.
func (n *pgroup) aggregate(g int, members []relation.Tuple) (relation.Tuple, error) {
	row := make(relation.Tuple, len(n.gIdx), len(n.gIdx)+len(n.aggs))
	copy(row, n.keys[g])
	for i, a := range n.aggs {
		v, err := computeAgg(a.Func, n.aIdx[i], members)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

func (n *pgroup) delta(ctx *deltaCtx) (*Rel[Count], error) {
	if d, ok := ctx.memo[n]; ok {
		return d, nil
	}
	din, err := n.in.delta(ctx)
	if err != nil {
		return nil, err
	}
	n.sync()
	inrel := n.in.rel()
	d := NewRel[Count](n.out.Schema)
	var changes []groupChange
	var affected []int
	// One pass over the input delta collects the affected groups and
	// buckets fresh tuples — delta tuples entering the input for the first
	// time (possible when a Diff below resurrects a tuple) — per group, so
	// the per-group work below is linear in the delta instead of rescanning
	// the whole delta once per affected group.
	fresh := map[int][]relation.Tuple{}
	seen := map[int]bool{}
	for i, t := range din.Tuples {
		g := n.group(t)
		if !seen[g] {
			seen[g] = true
			affected = append(affected, g)
		}
		if din.Anns[i] > 0 && inrel.Lookup(t) < 0 {
			fresh[g] = append(fresh[g], t)
		}
	}
	for _, g := range affected {
		// Current support of the group: retained members whose new count
		// stays positive, plus the fresh tuples bucketed above.
		var members []relation.Tuple
		for _, p := range n.members[g] {
			if err := ctx.pollStep(); err != nil {
				return nil, err
			}
			t := inrel.Tuples[p]
			if exactAdd(inrel.Anns[p], deltaOf(din, t)) > 0 {
				members = append(members, t)
			}
		}
		members = append(members, fresh[g]...)
		var newRow relation.Tuple
		if len(members) > 0 {
			if newRow, err = n.aggregate(g, members); err != nil {
				return nil, err
			}
		}
		oldRow := n.rows[g]
		if oldRow == nil && newRow == nil {
			continue
		}
		if oldRow != nil && newRow != nil && oldRow.Identical(newRow) {
			continue
		}
		if oldRow != nil {
			d.Add(zsum, oldRow, -1)
		}
		if newRow != nil {
			d.Add(zsum, newRow, 1)
		}
		changes = append(changes, groupChange{group: g, row: newRow})
	}
	ctx.memo[n] = d
	ctx.aux[n] = changes
	return d, nil
}

func (n *pgroup) commit(ctx *deltaCtx) {
	applyDelta(n.out, ctx.memo[n])
	for _, ch := range ctx.aux[n] {
		n.rows[ch.group] = ch.row
	}
}

// pbuilder constructs the prepared operator DAG and its base evaluation.
// Base scans are cached by relation name, so Q1 and Q2 (and self-joins)
// share one retained scan per relation — the same sharing the per-exec scan
// cache provides, but persistent.
type pbuilder struct {
	db     *relation.Database
	params map[string]relation.Value
	opts   Options
	scans  map[string]*pscan
	nodes  []pnode // children before parents (commit order is irrelevant,
	// but a deterministic walk keeps Commit reproducible)
}

func (b *pbuilder) add(n pnode) pnode {
	b.nodes = append(b.nodes, n)
	return n
}

func (b *pbuilder) build(q ra.Node) (pnode, error) {
	if err := b.opts.poll(); err != nil {
		return nil, err
	}
	switch x := q.(type) {
	case *ra.Rel:
		return b.buildScan(x)
	case *ra.Select:
		in, err := b.build(x.In)
		if err != nil {
			return nil, err
		}
		return b.buildSelect(x, in)
	case *ra.Project:
		in, err := b.build(x.In)
		if err != nil {
			return nil, err
		}
		return b.buildProject(x, in)
	case *ra.Rename:
		in, err := b.build(x.In)
		if err != nil {
			return nil, err
		}
		return b.add(&prename{in: in, out: renameRel(in.rel(), x.As)}), nil
	case *ra.Join:
		l, err := b.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(x.R)
		if err != nil {
			return nil, err
		}
		return b.buildJoin(x, l, r)
	case *ra.Union:
		l, err := b.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(x.R)
		if err != nil {
			return nil, err
		}
		if !l.rel().Schema.UnionCompatible(r.rel().Schema) {
			return nil, fmt.Errorf("engine: union of incompatible schemas %s, %s", l.rel().Schema, r.rel().Schema)
		}
		n := &punion{l: l, r: r, out: NewRel[Count](l.rel().Schema)}
		for i, t := range l.rel().Tuples {
			n.out.Add(Counting, t, l.rel().Anns[i])
		}
		for i, t := range r.rel().Tuples {
			n.out.Add(Counting, t, r.rel().Anns[i])
		}
		return b.add(n), nil
	case *ra.Diff:
		l, err := b.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(x.R)
		if err != nil {
			return nil, err
		}
		if !l.rel().Schema.UnionCompatible(r.rel().Schema) {
			return nil, fmt.Errorf("engine: difference of incompatible schemas %s, %s", l.rel().Schema, r.rel().Schema)
		}
		return b.buildDiff(l, r), nil
	case *ra.GroupBy:
		in, err := b.build(x.In)
		if err != nil {
			return nil, err
		}
		return b.buildGroupBy(x, in)
	case *ra.EquiJoin:
		l, err := b.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(x.R)
		if err != nil {
			return nil, err
		}
		return b.buildEquiJoin(x, l, r)
	case *ra.Permute:
		in, err := b.build(x.In)
		if err != nil {
			return nil, err
		}
		// A positional permutation is a pproject whose indices were never
		// resolved by name.
		n := &pproject{in: in, idxs: x.Idxs, out: NewRel[Count](in.rel().Schema.Project(x.Idxs))}
		for i, t := range in.rel().Tuples {
			n.out.addProjected(Counting, t, x.Idxs, in.rel().Anns[i])
		}
		return b.add(n), nil
	}
	return nil, fmt.Errorf("engine: unknown node type %T", q)
}

func (b *pbuilder) buildScan(x *ra.Rel) (pnode, error) {
	if n, ok := b.scans[x.Name]; ok {
		return n, nil
	}
	r := b.db.Relation(x.Name)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", x.Name)
	}
	n := &pscan{name: x.Name, out: NewRel[Count](r.Schema), pos: make(map[relation.TupleID]int, r.Len())}
	for i, t := range r.Tuples {
		n.out.Add(Counting, t, 1)
		n.pos[r.ID(i)] = n.out.Lookup(t)
	}
	b.scans[x.Name] = n
	b.add(n)
	return n, nil
}

func (b *pbuilder) buildSelect(x *ra.Select, in pnode) (pnode, error) {
	pred, err := ra.CompileExpr(x.Pred, in.rel().Schema, b.params)
	if err != nil {
		return nil, err
	}
	n := &pselect{in: in, pred: pred, out: NewRelCap[Count](in.rel().Schema, in.rel().Len())}
	for i, t := range in.rel().Tuples {
		v, err := pred(t)
		if err != nil {
			return nil, err
		}
		if ra.Truthy(v) {
			n.out.appendDistinct(t, in.rel().Anns[i])
		}
	}
	return b.add(n), nil
}

func (b *pbuilder) buildProject(x *ra.Project, in pnode) (pnode, error) {
	idxs, outSchema, err := projectPlan(x, in.rel().Schema)
	if err != nil {
		return nil, err
	}
	n := &pproject{in: in, idxs: idxs, out: NewRel[Count](outSchema)}
	for i, t := range in.rel().Tuples {
		n.out.addProjected(Counting, t, idxs, in.rel().Anns[i])
	}
	return b.add(n), nil
}

func (b *pbuilder) buildJoin(x *ra.Join, l, r pnode) (pnode, error) {
	lrel, rrel := l.rel(), r.rel()
	n := &pjoin{l: l, r: r}
	var outSchema relation.Schema
	if x.Cond == nil {
		shared, rOnly := ra.NaturalJoinCols(lrel.Schema, rrel.Schema)
		attrs := make([]relation.Attribute, 0, len(lrel.Schema.Attrs)+len(rOnly))
		attrs = append(attrs, lrel.Schema.Attrs...)
		for _, j := range rOnly {
			attrs = append(attrs, rrel.Schema.Attrs[j])
		}
		outSchema = relation.Schema{Attrs: attrs}
		n.natural = true
		n.rOnly = rOnly
		n.lKeys = make([]int, len(shared))
		n.rKeys = make([]int, len(shared))
		for i, p := range shared {
			n.lKeys[i], n.rKeys[i] = p[0], p[1]
		}
		if len(shared) == 0 && crossExceedsBudget(lrel.Len(), rrel.Len(), b.opts.rowBudget()) {
			return nil, ErrRowBudget
		}
	} else {
		outSchema = lrel.Schema.Concat(rrel.Schema)
		var residual ra.Expr
		n.lKeys, n.rKeys, residual = EquiJoinPlan(x.Cond, lrel.Schema, rrel.Schema)
		if residual != nil {
			pred, err := ra.CompileExpr(residual, outSchema, b.params)
			if err != nil {
				return nil, err
			}
			n.pred = pred
		}
	}
	n.out = NewRel[Count](outSchema)
	n.sync()
	// Base evaluation: probe the retained right table in left order (the
	// serial hash join's order) or fall back to nested loops.
	var pairs int
	emit := func(li, ri int) error {
		if pairs++; pairs%stopPollStride == 0 {
			if err := b.opts.poll(); err != nil {
				return err
			}
		}
		c := Counting.Times(lrel.Anns[li], rrel.Anns[ri])
		if c == 0 {
			return nil
		}
		lt, rt := lrel.Tuples[li], rrel.Tuples[ri]
		if ok, err := n.accepts(lt, rt); err != nil || !ok {
			return err
		}
		if n.out.Len() >= b.opts.rowBudget() {
			return ErrRowBudget
		}
		n.out.appendDistinct(n.outTuple(lt, rt), c)
		return nil
	}
	if len(n.lKeys) > 0 {
		for li, lt := range lrel.Tuples {
			if err := probe(n.rIdx, rrel, n.rKeys, lt, n.lKeys, func(ri int) error { return emit(li, ri) }); err != nil {
				return nil, err
			}
		}
	} else {
		for li := range lrel.Tuples {
			for ri := range rrel.Tuples {
				if err := emit(li, ri); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.add(n), nil
}

// buildEquiJoin is buildJoin for a planner-emitted positional equi-join:
// always keyed, never a residual predicate, full concatenation kept.
func (b *pbuilder) buildEquiJoin(x *ra.EquiJoin, l, r pnode) (pnode, error) {
	lrel, rrel := l.rel(), r.rel()
	n := &pjoin{
		l: l, r: r,
		lKeys: append([]int(nil), x.LKeys...),
		rKeys: append([]int(nil), x.RKeys...),
	}
	n.out = NewRel[Count](lrel.Schema.Concat(rrel.Schema))
	n.sync()
	var pairs int
	emit := func(li, ri int) error {
		if pairs++; pairs%stopPollStride == 0 {
			if err := b.opts.poll(); err != nil {
				return err
			}
		}
		c := Counting.Times(lrel.Anns[li], rrel.Anns[ri])
		if c == 0 {
			return nil
		}
		if n.out.Len() >= b.opts.rowBudget() {
			return ErrRowBudget
		}
		n.out.appendDistinct(n.outTuple(lrel.Tuples[li], rrel.Tuples[ri]), c)
		return nil
	}
	for li, lt := range lrel.Tuples {
		if err := probe(n.rIdx, rrel, n.rKeys, lt, n.lKeys, func(ri int) error { return emit(li, ri) }); err != nil {
			return nil, err
		}
	}
	return b.add(n), nil
}

func (b *pbuilder) buildDiff(l, r pnode) pnode {
	lrel, rrel := l.rel(), r.rel()
	n := &pdiff{l: l, r: r, out: NewRelCap[Count](lrel.Schema, lrel.Len())}
	for i, t := range lrel.Tuples {
		ann := Counting.Minus(lrel.Anns[i], countOf(rrel, t))
		if ann == 0 {
			continue
		}
		n.out.appendDistinct(t, ann)
	}
	n.live = n.out.Len()
	b.add(n)
	return n
}

func (b *pbuilder) buildGroupBy(x *ra.GroupBy, in pnode) (pnode, error) {
	gIdx, aIdx, outSchema, err := groupPlan(x, in.rel().Schema)
	if err != nil {
		return nil, err
	}
	n := &pgroup{
		in: in, aggs: x.Aggs, gIdx: gIdx, aIdx: aIdx,
		out: NewRel[Count](outSchema), byKey: relation.NewIndex(0),
	}
	n.sync()
	inrel := in.rel()
	for g, ps := range n.members {
		members := make([]relation.Tuple, 0, len(ps))
		for _, p := range ps {
			members = append(members, inrel.Tuples[p])
		}
		row, err := n.aggregate(g, members)
		if err != nil {
			return nil, err
		}
		n.out.appendDistinct(row, 1)
		n.rows[g] = row
	}
	return b.add(n), nil
}

// PreparedDiff is the retained evaluation of Q1 − Q2 and Q2 − Q1 over a base
// instance, ready to answer signed update deltas (deletions, insertions,
// updates as delete+insert; see ApplyDelta in delta.go). It is NOT safe for
// concurrent use: ApplyDelta mutates lazily-synced indexes and Commit
// mutates retained outputs and — when insertions are involved — the base
// Database itself, which the prepared object must therefore own.
type PreparedDiff struct {
	db       *relation.Database
	d12, d21 *pdiff
	nodes    []pnode
	scans    map[string]*pscan
	opts     Options
	removed  map[relation.TupleID]bool
	epoch    int
	liveSize int
}

// PrepareDiff evaluates q1 and q2 once on db under the counting semiring
// (sharing base scans between the two queries) and retains the per-operator
// state needed to propagate deletion deltas. It returns ErrNotIncremental
// (wrapped) when the retained state cannot support delta arithmetic; other
// errors mirror a full evaluation's (unknown relations, row budget,
// incompatible schemas).
func PrepareDiff(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*PreparedDiff, error) {
	cat := Catalog{DB: db}
	if !opts.NoOptimize {
		q1 = Optimize(q1, cat)
		q2 = Optimize(q2, cat)
	}
	if !opts.NoPlan {
		// Join reordering is shared with the one-shot path, but the
		// Yannakakis semi-join pass is not: a deletion elsewhere can turn a
		// retained tuple dangling, so a semi-join-reduced retained state
		// cannot be maintained by local deltas.
		var err error
		if q1, err = planWith(q1, db, opts, false); err != nil {
			return nil, err
		}
		if q2, err = planWith(q2, db, opts, false); err != nil {
			return nil, err
		}
	}
	b := &pbuilder{db: db, params: params, opts: opts, scans: map[string]*pscan{}}
	n1, err := b.build(q1)
	if err != nil {
		return nil, err
	}
	n2, err := b.build(q2)
	if err != nil {
		return nil, err
	}
	if !n1.rel().Schema.UnionCompatible(n2.rel().Schema) {
		return nil, fmt.Errorf("engine: difference of incompatible schemas %s, %s", n1.rel().Schema, n2.rel().Schema)
	}
	d12 := b.buildDiff(n1, n2)
	d21 := b.buildDiff(n2, n1)
	// Oversized derivation counts would make the signed delta arithmetic
	// unsound: saturation is not invertible, and delta products of counts
	// near the int64 range overflow silently. maxSafeCount keeps every
	// product and partial sum the delta rules can form exactly
	// representable; plans beyond it fall back.
	for _, n := range b.nodes {
		for _, c := range n.rel().Anns {
			if c > maxSafeCount {
				return nil, fmt.Errorf("%w: derivation counts too large for exact delta arithmetic", ErrNotIncremental)
			}
		}
	}
	return &PreparedDiff{
		db: db, d12: d12.(*pdiff), d21: d21.(*pdiff), nodes: b.nodes,
		scans: b.scans, opts: opts,
		removed: map[relation.TupleID]bool{}, liveSize: db.Size(),
	}, nil
}

// Epoch counts committed deltas; it identifies the base instance version.
func (p *PreparedDiff) Epoch() int { return p.epoch }

// BaseSize is the number of tuples in the current base instance.
func (p *PreparedDiff) BaseSize() int { return p.liveSize }

// Disagrees reports whether Q1 and Q2 differ on the current base instance.
func (p *PreparedDiff) Disagrees() bool { return p.d12.live > 0 || p.d21.live > 0 }

// LiveIDs returns the identifiers of the current base instance, sorted.
func (p *PreparedDiff) LiveIDs() []relation.TupleID {
	out := make([]relation.TupleID, 0, p.liveSize)
	for _, id := range p.db.AllIDs() {
		if !p.removed[id] {
			out = append(out, id)
		}
	}
	return out
}

// Diffs materializes Q1 − Q2 and Q2 − Q1 on the current base instance.
func (p *PreparedDiff) Diffs() (*relation.Relation, *relation.Relation) {
	return materializeDiff(p.d12.out, nil), materializeDiff(p.d21.out, nil)
}

func materializeDiff(base *Rel[Count], d *Rel[Count]) *relation.Relation {
	out := relation.NewRelation("−", base.Schema)
	//lint:budgeted one pass over an already-materialized output; deltaOf is an O(1) annotation lookup, not delta propagation
	for i, t := range base.Tuples {
		if exactAdd(base.Anns[i], deltaOf(d, t)) > 0 {
			out.Append(t)
		}
	}
	if d != nil {
		for i, t := range d.Tuples {
			if d.Anns[i] > 0 && base.Lookup(t) < 0 {
				out.Append(t)
			}
		}
	}
	return out
}

// DeltaResult is the effect of one signed update delta on the two
// difference directions, relative to the prepared base instance at the
// epoch it was computed. Multiple uncommitted results from the same epoch
// are independent candidates; Commit folds one of them into the base.
type DeltaResult struct {
	p              *PreparedDiff
	epoch          int
	ctx            *deltaCtx
	inserts        []Insert
	insertedIDs    []relation.TupleID // assigned at Commit, caller order
	size12, size21 int
	committed      bool
}

// supportShift counts how many tuples enter minus leave a retained output
// under a signed delta.
func supportShift(base *Rel[Count], d *Rel[Count]) int {
	shift := 0
	for i, t := range d.Tuples {
		ch := d.Anns[i]
		if ch == 0 {
			continue
		}
		old := countOf(base, t)
		now := exactAdd(old, ch)
		switch {
		case old == 0 && now != 0:
			shift++
		case old != 0 && now == 0:
			shift--
		}
	}
	return shift
}

// Size12 is |Q1 − Q2| on the delta's subinstance; Size21 the reverse.
func (r *DeltaResult) Size12() int { return r.size12 }

// Size21 is |Q2 − Q1| on the delta's subinstance.
func (r *DeltaResult) Size21() int { return r.size21 }

// Disagrees reports whether the queries differ on the delta's subinstance.
func (r *DeltaResult) Disagrees() bool { return r.size12 > 0 || r.size21 > 0 }

// Diff12 materializes Q1 − Q2 on the delta's subinstance. After this
// result was committed its delta is already folded into the base, so the
// base materializes as-is; a result superseded by another commit returns
// ErrStaleDelta (re-applying its delta against the advanced base would
// double-count the changes).
func (r *DeltaResult) Diff12() (*relation.Relation, error) {
	return r.materialize(r.p.d12)
}

// Diff21 materializes Q2 − Q1 on the delta's subinstance.
func (r *DeltaResult) Diff21() (*relation.Relation, error) {
	return r.materialize(r.p.d21)
}

func (r *DeltaResult) materialize(n *pdiff) (*relation.Relation, error) {
	if r.committed {
		return materializeDiff(n.out, nil), nil
	}
	if r.epoch != r.p.epoch {
		return nil, ErrStaleDelta
	}
	return materializeDiff(n.out, r.ctx.memo[n]), nil
}

// Commit folds the delta into the retained state: the delta's updated
// instance becomes the new base, and subsequent ApplyDelta calls are
// relative to it. Insertions are folded into the base Database, assigning
// fresh TupleIDs in the order they were passed to ApplyDelta (see
// InsertedIDs), and registered with the retained scan position maps so
// later deltas can delete them by id. A result computed before another
// Commit advanced the state returns ErrStaleDelta — committing it would
// apply changes against the wrong base.
func (r *DeltaResult) Commit() error {
	if r.epoch != r.p.epoch {
		return ErrStaleDelta
	}
	for _, n := range r.p.nodes {
		n.commit(r.ctx)
	}
	for _, id := range r.ctx.removed {
		r.p.removed[id] = true
	}
	if len(r.inserts) > 0 {
		r.insertedIDs = make([]relation.TupleID, 0, len(r.inserts))
		for _, ins := range r.inserts {
			id := r.p.db.Insert(ins.Rel, ins.Tuple)
			r.insertedIDs = append(r.insertedIDs, id)
			if sc, ok := r.p.scans[ins.Rel]; ok {
				sc.pos[id] = sc.out.Lookup(ins.Tuple)
			}
		}
	}
	r.p.liveSize += len(r.inserts) - len(r.ctx.removed)
	r.p.epoch++
	r.committed = true
	return nil
}
