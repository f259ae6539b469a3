package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// This file wires the engine's delta-incremental subsystem into the witness
// search: a checker owns one engine.PreparedDiff per (Q1, Q2, D) problem and
// routes each candidate accept/reject question to whichever evaluation path is
// cheapest — the retained-state deletion delta for candidates close to the
// base instance, a fresh evaluation of the materialized subinstance for the
// witness-sized ones — and ShrinkGreedy turns the committed-delta mode into a
// solver-free counterexample minimizer (one O(|Δ|) evaluation per deletion
// attempt instead of a full re-evaluation).

// maxDeltaFraction bounds the delta path: a candidate whose deletion delta
// exceeds this fraction of the base instance pays more in delta propagation
// (O(|Δ| × operator fanout)) than evaluating its subinstance from scratch
// would, so it takes the subinstance path.
const maxDeltaFraction = 0.25

// checker carries the per-problem evaluation state the search algorithms
// share across candidates: the base diffs of Q1 − Q2 / Q2 − Q1 on D (from
// the one-time prepared evaluation) and the prepared per-operator state for
// delta-incremental candidate checks. The prepared object is reserved for
// *uncommitted* candidate deltas here — its base must stay D, or the
// complement arithmetic below would silently check the wrong subinstance
// (ShrinkGreedy owns its own PreparedDiff precisely because it commits).
type checker struct {
	p       Problem
	prep    *engine.PreparedDiff
	allIDs  []relation.TupleID
	differs bool
	// d12, d21 are the difference tuples on the full database D.
	d12, d21 *relation.Relation
}

// newChecker evaluates the problem's queries once on D. When the plan pair
// is delta-incrementalizable the evaluation is retained as a PreparedDiff
// (so the diffs come from the prepared state, not a second evaluation);
// otherwise it degrades to the plain Disagrees evaluation.
func newChecker(p Problem) (*checker, error) {
	c := &checker{p: p}
	if prep, err := engine.PrepareDiff(p.Q1, p.Q2, p.DB, p.Params, p.engineOpts()); err == nil {
		c.prep = prep
		c.d12, c.d21 = prep.Diffs()
	} else {
		var derr error
		_, c.d12, c.d21, derr = p.disagrees(p.DB)
		if derr != nil {
			return nil, derr
		}
	}
	c.differs = c.d12.Len() > 0 || c.d21.Len() > 0
	return c, nil
}

// disagree reports whether Q1 and Q2 disagree on one candidate subinstance
// (a kept-id set over D). A candidate that removes at most
// maxDeltaFraction·|D| tuples is answered by the retained delta state; every
// other candidate — and every candidate when there is no usable prepared
// state — is materialized and evaluated from scratch. Callers check their
// candidates one at a time, so a search stops evaluating at its answer.
func (c *checker) disagree(ids []int) (bool, error) {
	// Each candidate can cost a full evaluation; honor the request budget
	// between candidates.
	if err := c.p.interrupted(); err != nil {
		return false, err
	}
	kept := make(map[relation.TupleID]bool, len(ids))
	for _, id := range ids {
		kept[relation.TupleID(id)] = true
	}
	if differs, ok := c.disagreeByDelta(kept); ok {
		return differs, nil
	}
	differs, _, _, err := c.p.disagrees(c.p.DB.Subinstance(kept))
	return differs, err
}

// disagreeByDelta answers one candidate from the retained delta state. ok is
// false when the state is gone or rebased, when the removed set exceeds
// maxDeltaFraction·|D|, or when the delta evaluation fails: such errors are
// candidate-specific (e.g. a predicate failing on a resurrected tuple), so
// the caller evaluates the subinstance instead.
func (c *checker) disagreeByDelta(kept map[relation.TupleID]bool) (differs, ok bool) {
	if c.prep == nil || c.prep.Epoch() != 0 {
		return false, false
	}
	// Route on the deduplicated kept count: a raw id list over-counts
	// duplicates, which would under-estimate the removed set and let an
	// over-budget delta slip through to the delta path.
	base := c.prep.BaseSize()
	if base-len(kept) > int(maxDeltaFraction*float64(base)) {
		return false, false
	}
	res, err := c.prep.ApplyDelta(c.complementSet(kept), nil)
	if err != nil {
		return false, false
	}
	return res.Disagrees(), true
}

// complementSet turns a kept-id set into the removed-id delta against D.
func (c *checker) complementSet(kept map[relation.TupleID]bool) []relation.TupleID {
	if c.allIDs == nil {
		c.allIDs = c.p.DB.AllIDs()
	}
	removed := make([]relation.TupleID, 0, len(c.allIDs)-len(kept))
	for _, id := range c.allIDs {
		if !kept[id] {
			removed = append(removed, id)
		}
	}
	return removed
}

// release drops the retained per-operator state, keeping only the base
// diffs. Callers that never check candidates through the checker (Basic,
// OptSigmaAll) release after construction so the evaluation-sized retained
// working set is not pinned for the whole solve phase.
func (c *checker) release() { c.prep = nil }

// fkGuard tracks foreign-key obligations during greedy deletion: a parent
// tuple may only be deleted while no live child still depends on it as its
// last live parent (FKs are the one constraint class not closed under
// subinstances, Section 2.1/4.3). Parent counts are tracked per (FK, child)
// pair: a child constrained by two foreign keys needs a live parent under
// *each* of them, so pooling the counts across FKs would let the last
// parent under one FK slip away while the other FK still has spares.
type fkGuard struct {
	// parentChildren maps a parent tuple to the (fk, child) edges that
	// depend on it.
	parentChildren map[relation.TupleID][]fkEdge
	// liveParents counts, per FK, each child's remaining live parents.
	liveParents []map[relation.TupleID]int
	removed     map[relation.TupleID]bool
}

type fkEdge struct {
	fk    int
	child relation.TupleID
}

func newFKGuard(db *relation.Database, fks []relation.ForeignKey) (*fkGuard, error) {
	g := &fkGuard{
		parentChildren: map[relation.TupleID][]fkEdge{},
		liveParents:    make([]map[relation.TupleID]int, len(fks)),
		removed:        map[relation.TupleID]bool{},
	}
	for i, fk := range fks {
		m, err := fk.ParentsOf(db)
		if err != nil {
			return nil, err
		}
		g.liveParents[i] = make(map[relation.TupleID]int, len(m))
		for child, parents := range m {
			g.liveParents[i][child] = len(parents)
			for _, p := range parents {
				g.parentChildren[p] = append(g.parentChildren[p], fkEdge{fk: i, child: child})
			}
		}
	}
	return g, nil
}

// removable reports whether deleting id keeps every live child supported
// under every foreign key.
func (g *fkGuard) removable(id relation.TupleID) bool {
	for _, e := range g.parentChildren[id] {
		if !g.removed[e.child] && g.liveParents[e.fk][e.child] <= 1 {
			return false
		}
	}
	return true
}

// remove records the deletion of id.
func (g *fkGuard) remove(id relation.TupleID) {
	g.removed[id] = true
	for _, e := range g.parentChildren[id] {
		g.liveParents[e.fk][e.child]--
	}
}

// shrinkFallbackLimit bounds the instance size the per-candidate fallback
// shrink loop accepts: without retained state every deletion attempt costs a
// full subinstance evaluation, which is only tolerable on small instances.
const shrinkFallbackLimit = 4096

// ShrinkGreedy computes a counterexample by greedy deletion: starting from
// the full instance D (on which the queries must disagree), it repeatedly
// deletes any tuple whose removal preserves both the disagreement and the
// foreign-key constraints, iterating to a fixpoint. The result is
// 1-minimal — no single remaining tuple can be deleted — though not
// necessarily the globally smallest witness; unlike the solver-based
// algorithms it needs no provenance, CNF or SAT budget.
//
// Each deletion attempt is answered by the prepared delta state in time
// proportional to the single-tuple delta; accepted deletions are committed,
// so one full pass over D costs O(|D|) delta propagations instead of the
// O(|D|) full re-evaluations the naive loop pays. Plans the engine cannot
// prepare fall back to that naive loop (bounded to small instances).
func ShrinkGreedy(p Problem) (*Counterexample, *Stats, error) {
	stats := &Stats{Algorithm: "ShrinkGreedy"}
	start := time.Now()
	if err := p.interrupted(); err != nil {
		return nil, nil, err
	}
	guard, err := newFKGuard(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	prep, perr := engine.PrepareDiff(p.Q1, p.Q2, p.DB, p.Params, p.engineOpts())
	stats.RawEvalTime = time.Since(t0)
	var kept []relation.TupleID
	var witness relation.Tuple
	if perr == nil {
		if !prep.Disagrees() {
			return nil, nil, ErrQueriesAgree
		}
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		for {
			progress := false
			for _, id := range prep.LiveIDs() {
				if err := p.interrupted(); err != nil {
					return nil, nil, err
				}
				if !guard.removable(id) {
					continue
				}
				res, err := prep.ApplyDelta([]relation.TupleID{id}, nil)
				if err != nil {
					// Delta-time evaluation errors are candidate-specific
					// (e.g. a predicate failing on a resurrected tuple):
					// treat the tuple as non-removable instead of abandoning
					// the whole minimization.
					continue
				}
				if !res.Disagrees() {
					continue
				}
				if err := res.Commit(); err != nil {
					return nil, nil, err
				}
				guard.remove(id)
				progress = true
			}
			if !progress {
				break
			}
		}
		kept = prep.LiveIDs()
		d12, d21 := prep.Diffs()
		if d12.Len() > 0 {
			witness = d12.Tuples[0]
		} else if d21.Len() > 0 {
			witness = d21.Tuples[0]
		}
	} else {
		kept, witness, err = shrinkGreedyFallback(p, guard)
		if err != nil {
			return nil, nil, err
		}
	}
	ids := make([]int, len(kept))
	for i, id := range kept {
		ids[i] = int(id)
	}
	sub, tids := subinstanceFromIDs(p.DB, ids)
	ce := &Counterexample{DB: sub, IDs: tids, Witness: witness}
	stats.WitnessSize = ce.Size()
	stats.TotalTime = time.Since(start)
	if err := Verify(p, ce); err != nil {
		// A budget expiry during the final verification is a budget
		// failure, not an algorithm bug.
		if errors.Is(err, ErrBudget) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: ShrinkGreedy produced an invalid counterexample: %v", err)
	}
	return ce, stats, nil
}

// shrinkGreedyFallback is the no-retained-state loop: every deletion attempt
// materializes the candidate subinstance and re-evaluates both queries.
func shrinkGreedyFallback(p Problem, guard *fkGuard) ([]relation.TupleID, relation.Tuple, error) {
	if p.DB.Size() > shrinkFallbackLimit {
		return nil, nil, fmt.Errorf("core: plan is not delta-incrementalizable and |D|=%d exceeds the fallback shrink limit %d",
			p.DB.Size(), shrinkFallbackLimit)
	}
	live := map[relation.TupleID]bool{}
	for _, id := range p.DB.AllIDs() {
		live[id] = true
	}
	differs, d12, d21, err := p.disagrees(p.DB)
	if err != nil {
		return nil, nil, err
	}
	if !differs {
		return nil, nil, ErrQueriesAgree
	}
	var witness relation.Tuple
	if d12.Len() > 0 {
		witness = d12.Tuples[0]
	} else {
		witness = d21.Tuples[0]
	}
	for {
		progress := false
		for _, id := range p.DB.AllIDs() {
			if err := p.interrupted(); err != nil {
				return nil, nil, err
			}
			if !live[id] || !guard.removable(id) {
				continue
			}
			live[id] = false
			sub := p.DB.Subinstance(live)
			differs, nd12, nd21, err := p.disagrees(sub)
			if err != nil || !differs {
				live[id] = true
				continue
			}
			guard.remove(id)
			progress = true
			if nd12.Len() > 0 {
				witness = nd12.Tuples[0]
			} else {
				witness = nd21.Tuples[0]
			}
		}
		if !progress {
			break
		}
	}
	var kept []relation.TupleID
	for _, id := range p.DB.AllIDs() {
		if live[id] {
			kept = append(kept, id)
		}
	}
	return kept, witness, nil
}
