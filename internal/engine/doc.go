// Package engine is the unified query execution engine: a single relational
// algebra evaluator parameterized by an annotation semiring, with hash-based
// physical operators (hash equi-join, hash union/difference/dedup) driven by
// the equi-join keys the optimizer extracts.
//
// # Semirings
//
// Every logical operator (σ, π, ⋈, ∪, −, ρ, γ) is written once against
// [Semiring]: a commutative semiring (⊕, ⊗, 0, 1) over the annotation type
// T, extended with the Section-6 difference rule and a base-tuple leaf
// annotation. The shipped instantiations are
//
//   - [Set] — plain set semantics, behind [Eval] / [EvalOpts];
//   - [Why] — Boolean how-provenance over base tuple identifiers, behind
//     [EvalProv] / [EvalProvOpts] (γ is rejected: aggregate provenance goes
//     through core.EvalAggProv);
//   - [Count] — derivation counting with saturating arithmetic, behind
//     [CountDistinct] / [CountDistinctOpts].
//
// New annotation domains (lineage sets, tropical costs, …) only need a
// Semiring implementation; the logical and physical operators are shared.
// Invariant: operators never mutate their inputs, so relations — including
// the caller's database — may be shared across concurrent evaluations.
//
// # Delta-incremental evaluation
//
// [PrepareDiff] evaluates Q1 and Q2 once under the counting semiring and
// retains per-operator state (scan position maps, both join-side hash
// tables, indexed set-operation outputs, γ group membership, derivation
// counts). [PreparedDiff.ApplyDelta] propagates one signed update —
// deletions plus insertions, updates expressed as delete+insert — through
// the retained state in time proportional to the delta (candidate checks
// pass deletions only), and [DeltaResult.Commit] rebases the retained state
// (assigning fresh TupleIDs to committed insertions in deterministic order)
// for sequential shrink loops and live sessions. Invariants: a prepared state answers
// deltas only against its current base (stale commits fail with
// [ErrStaleDelta]); derivation counts are kept exact and below a safe
// bound — a plan or delta that would saturate them is refused with
// [ErrNotIncremental] before any state mutates (saturation is not
// invertible, so signed delta arithmetic over it would be unsound), and
// the prepared state stays usable. Because committing insertions mutates
// the underlying database, a prepared object whose callers insert must
// own a private clone of its instance.
//
// # Budgets and parallelism
//
// Every evaluation is bounded by the intermediate-row budget — the
// process-wide [MaxIntermediateRows], optionally tightened per evaluation
// via [Options].MaxRows — and fails with [ErrRowBudget] when exceeded.
// [Options].Parallelism enables the hash-partitioned parallel operator
// forms; results are identical to serial evaluation with deterministic
// tuple order for a fixed setting.
package engine
