// Package core implements the paper's contribution: algorithms for the
// smallest counterexample problem (SCP) and smallest witness problem (SWP)
// of Section 2, including
//
//   - [Basic] (Algorithm 1): SAT-model enumeration over how-provenance;
//   - [OptSigma] (Algorithm 2): selection pushdown plus an optimizing
//     solver, and [OptSigmaAll], its exact whole-difference variant;
//   - poly-time algorithms for the tractable classes of Table 1
//     ([MonotoneSWP] for SJ/SPU/SPJU via DNF, [JUStarSWP], [SPJUDStarSWP]);
//   - the aggregate-query algorithms of Section 5: [AggBasic] (provenance
//     for aggregates), Agg-Param (smallest parameterized counterexample,
//     via AggOptions.Parameterize) and [AggOpt] (the heuristic
//     Algorithm 3);
//   - foreign-key constraint handling (Section 4.3) and automatic
//     algorithm dispatch ([Explain]).
//
// # Problems, budgets and outcomes
//
// Every algorithm takes a [Problem] — the query pair, the instance, its
// constraints and parameter bindings — and returns a verified
// [Counterexample] with [Stats], or an error. Two error sentinels separate
// outcomes callers handle specially from genuine failures:
// [ErrQueriesAgree] (the queries agree on D, so no counterexample exists
// within it) and [ErrBudget] (the problem's Ctx deadline or cancellation
// cut the search short). A Problem optionally carries per-request budgets:
// Ctx (wall clock, polled between loop iterations and inside the SAT/SMT
// solvers), MaxConflicts (per SAT call) and MaxRows (engine intermediate
// rows). Invariant: a budgeted search may fail early, but it never returns
// an unverified counterexample — every result passes [Verify] before it is
// returned.
//
// # Candidate checking
//
// Every algorithm starts from one plain evaluation of Q1 and Q2 on D
// (Problem.disagrees), which yields the difference tuples it explains. The
// enumerating searches (EnumerateSmallest, SPJUDStarSWP) then check their
// candidates one at a time, smallest first: each candidate id set is
// materialized as a subinstance ([relation.Database.Subinstance], O(k log k)
// in the kept set) and both queries are evaluated on it under the problem's
// budget, so a search stops evaluating at its answer. Candidates are
// witness-sized, far below |D|, so no retained evaluation state is kept for
// them; only ShrinkGreedy, whose deletion attempts differ from the current
// instance by one tuple, answers them by delta (engine.PrepareDiff).
//
// Solvers live below this package: internal/sat (CDCL), internal/minones
// (min-ones enumeration/optimization), internal/smt (symbolic aggregate
// constraints).
package core
