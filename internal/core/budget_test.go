package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// A canceled context must abort every algorithm entry point with an error
// wrapping both ErrBudget and context.Canceled — never a counterexample.
func TestCanceledContextAborts(t *testing.T) {
	db := testdb.Example1DB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: db, Ctx: ctx}

	algos := map[string]func() error{
		"Explain":     func() error { _, _, err := Explain(p); return err },
		"Basic":       func() error { _, _, err := Basic(p, 0); return err },
		"OptSigma":    func() error { _, _, err := OptSigma(p); return err },
		"OptSigmaAll": func() error { _, _, err := OptSigmaAll(p); return err },
		"ShrinkGreedy": func() error {
			_, _, err := ShrinkGreedy(p)
			return err
		},
		"EnumerateSmallest": func() error { _, err := EnumerateSmallest(p, 4); return err },
	}
	for name, run := range algos {
		err := run()
		if err == nil {
			t.Fatalf("%s: expected a budget error under a canceled context", name)
		}
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s: error %v does not wrap ErrBudget", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", name, err)
		}
	}
}

// A deadline that expires mid-search must surface as a budget error, and
// the same problem without the deadline must still succeed (the plumbing
// must not leak budget state between runs).
func TestDeadlineMidSearch(t *testing.T) {
	db := testdb.Example1DB()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: db}
	if _, _, err := Explain(p); err != nil {
		t.Fatalf("unbudgeted Explain failed: %v", err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	p.Ctx = ctx
	_, _, err := Explain(p)
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected budget+deadline error, got %v", err)
	}
}

// Problem.MaxRows must tighten the engine's intermediate-row budget for the
// problem's own evaluations.
func TestMaxRowsBudget(t *testing.T) {
	db := testdb.Example1DB()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: db, MaxRows: 2}
	_, _, err := Explain(p)
	if !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("expected ErrRowBudget with MaxRows=2, got %v", err)
	}
	p.MaxRows = 0
	if _, _, err := Explain(p); err != nil {
		t.Fatalf("Explain without MaxRows failed: %v", err)
	}
}

// The agree outcome must be detectable with errors.Is across algorithms.
func TestErrQueriesAgreeSentinel(t *testing.T) {
	db := testdb.Example1DB()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q1(), DB: db}
	if _, _, err := Explain(p); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("Explain on equal queries: got %v, want ErrQueriesAgree", err)
	}
	if _, err := EnumerateSmallest(p, 4); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("EnumerateSmallest on equal queries: got %v, want ErrQueriesAgree", err)
	}
	if _, _, err := ShrinkGreedy(p); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("ShrinkGreedy on equal queries: got %v, want ErrQueriesAgree", err)
	}
}

// SolveWitnessStrategy evaluates under the problem's row budget, like the
// algorithms it mirrors.
func TestSolveWitnessStrategyMaxRows(t *testing.T) {
	p := courseProblem(t, 300)
	p.MaxRows = 1
	if _, _, err := SolveWitnessStrategy(p, "opt", 0); !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("expected ErrRowBudget with MaxRows=1, got %v", err)
	}
}

// Aggregate provenance runs under the engine options it is given, and a
// budget failure is returned at once rather than retried with the fully
// bound parameters.
func TestAggProvBudgetNotRetried(t *testing.T) {
	db := testdb.Example1DB()
	q := testdb.ParamQ2()
	full := map[string]relation.Value{"numCS": relation.Int(3)}
	spec, ok := ra.MatchTopAggregate(q)
	if !ok {
		t.Fatal("ParamQ2 should have the aggregate-provenance shape")
	}

	t.Run("stop", func(t *testing.T) {
		stopErr := fmt.Errorf("%w: stopped", ErrBudget)
		polls := 0
		opts := engine.Options{Stop: func() error { polls++; return stopErr }}
		if _, err := evalAggProvHaving(q, db, nil, full, opts); !errors.Is(err, stopErr) {
			t.Fatalf("got %v, want the stop hook's error", err)
		}
		// The hook fails its first poll, so each evaluation polls it once.
		if polls != 1 {
			t.Fatalf("stop hook polled %d times, want 1 (one evaluation)", polls)
		}
	})

	t.Run("max-rows", func(t *testing.T) {
		polls := 0
		opts := engine.Options{MaxRows: 1, Stop: func() error { polls++; return nil }}
		if _, err := evalAggProvHaving(q, db, nil, full, opts); !errors.Is(err, engine.ErrRowBudget) {
			t.Fatalf("got %v, want ErrRowBudget", err)
		}
		// One evaluation of the inner query polls exactly this often.
		got := polls
		polls = 0
		if _, err := engine.EvalProvOpts(spec.Inner, db, nil, opts); !errors.Is(err, engine.ErrRowBudget) {
			t.Fatalf("inner query: got %v, want ErrRowBudget", err)
		}
		if polls == 0 || got != polls {
			t.Fatalf("stop hook polled %d times, one evaluation polls %d", got, polls)
		}
	})
}
