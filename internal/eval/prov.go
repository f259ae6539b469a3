package eval

import (
	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
)

// AnnRel is a provenance-annotated relation: each tuple carries its Boolean
// how-provenance over base tuple identifiers (Section 2.3). Under set
// semantics, tuples are distinct and the annotation of a merged duplicate is
// the disjunction of its sources (the string_agg rewrite rule of Section 6).
//
// It is a read-only view of an engine.ProvRel: the two share tuple and
// annotation storage, and Lookup probes the engine relation's index.
type AnnRel struct {
	Schema relation.Schema
	Tuples []relation.Tuple
	Provs  []*boolexpr.Expr

	rel *engine.ProvRel
}

// fromEngine wraps an engine provenance result without copying.
func fromEngine(r *engine.ProvRel) *AnnRel {
	return &AnnRel{Schema: r.Schema, Tuples: r.Tuples, Provs: r.Anns, rel: r}
}

// Len returns the number of distinct tuples.
func (a *AnnRel) Len() int { return len(a.Tuples) }

// Lookup returns the position of an identical tuple, or -1. It is a hash
// probe, not a scan.
func (a *AnnRel) Lookup(t relation.Tuple) int { return a.rel.Lookup(t) }

// Relation strips annotations, returning a plain relation.
func (a *AnnRel) Relation(name string) *relation.Relation {
	out := relation.NewRelation(name, a.Schema)
	out.Tuples = append(out.Tuples, a.Tuples...)
	return out
}

// EvalProv evaluates a SPJUD query with how-provenance annotation. GroupBy
// nodes are rejected: aggregate queries go through EvalAggProv (Section 5).
// The query is optimized (selection pushdown, hash equi-joins) first; the
// rewrites preserve provenance annotations.
func EvalProv(q ra.Node, db *relation.Database, params map[string]relation.Value) (*AnnRel, error) {
	r, err := engine.EvalProv(q, db, params)
	if err != nil {
		return nil, err
	}
	return fromEngine(r), nil
}
