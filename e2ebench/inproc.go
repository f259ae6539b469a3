package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// reviseEvery is how many grades pass between two bursts of revisions in
// every workload. Revisions are the fast class, so with at most two per
// burst (two ops in five) the latency median stays inside the grade
// distribution, away from the boundary between the classes.
const reviseEvery = 3

// pair is one grading input: the reference query and the query under test,
// as RA text (the op parses them).
type pair struct {
	key    string
	q1, q2 string
	agg    bool
}

// inprocBench is the in-process explain loop of course-sweep and tpch-agg:
// one caller explains every pair through ratest.ExplainContext with
// automatic dispatch, and after every third explanation applies a burst
// of edits to a resident core.LiveSession.
type inprocBench struct {
	// dbs are the instances; pass p explains every pair on dbs[p%len(dbs)].
	dbs   []*relation.Database
	opts  *ratest.Options
	pairs []pair
	// mayAgree accepts "the queries agree on the instance" as an answer.
	mayAgree bool
	// burst is the number of revisions after every third grade.
	burst  int
	passes int

	sessProblem core.Problem // the session's problem over the pristine dbs[0]
	ls          *core.LiveSession
	edits       *editStream
	base        int // the session's live size before any edit

	results []explained
}

// explained is one explanation kept for the output check.
type explained struct {
	pair, db int
	q1, q2   ra.Node
	ce       *core.Counterexample
}

// Nominal times of one untraced pass on a 2-core Xeon (GOMAXPROCS=2). A
// run measures round(--seconds / nominal) whole passes: a fixed count keeps
// the percentile ranks on the same pairs in every run, where one pass more
// or less would shift the tail from one query's times to another's.
const (
	coursePass = 3 * time.Second
	tpchPass   = 4300 * time.Millisecond
)

func passesFor(d, nominal time.Duration) int {
	return max(1, int(math.Round(float64(d)/float64(nominal))))
}

func setupCourseSweep(seed int64, d time.Duration) (bench, error) {
	db := course.GenerateDB(20000, seed)
	found, err := course.DiscoveredWrong(db, course.WrongQueryBank(db, 4))
	if err != nil {
		return nil, err
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("no wrong query is discovered on the instance")
	}
	refs := map[string]ra.Node{}
	for _, q := range course.Questions() {
		refs[q.ID] = q.Correct
	}
	var pairs []pair
	for i, w := range found {
		pairs = append(pairs, pair{key: fmt.Sprintf("%s#%d", w.Question, i), q1: refs[w.Question].String(), q2: w.Query.String()})
	}
	// The live session grades the first discovered pair on the classroom
	// instance, the /grade default size (|D|=1000): the size a student's
	// live session works on. On the 20000-tuple instance each edit's
	// re-grade copies hundreds of difference tuples, and that memory
	// traffic right after an explanation made the revise figures drift
	// with the host's load far more than the grades.
	small := course.GenerateDB(1000, seed)
	sp := core.Problem{Q1: refs[found[0].Question], Q2: found[0].Query, DB: small, Constraints: course.Constraints()}
	// Two revisions per burst: with a hundred, the revise tail would rest
	// on the ten samples a garbage collection happened to hit.
	return newInprocBench([]*relation.Database{db}, &ratest.Options{Constraints: course.Constraints()}, pairs, false,
		2, passesFor(d, coursePass), sp, registrationEdits(small, seed))
}

// setupTPCHAgg generates one TPC-H instance per pass. Query cost at SF
// 0.001 depends on the generated data, so pooling several instances per
// run keeps one instance's data from deciding the run's figures. A wrong
// variant may agree with its reference on some instance (a small instance
// need not expose every mistake); that op's answer is "agree", checked
// with ratest.Equivalent.
func setupTPCHAgg(seed int64, d time.Duration) (bench, error) {
	passes := passesFor(d, tpchPass)
	var dbs []*relation.Database
	var pairs []pair
	for _, qs := range tpch.All() {
		for j, w := range qs.Wrong {
			pairs = append(pairs, pair{key: fmt.Sprintf("%s#%d", qs.Name, j), q1: qs.Correct.String(), q2: w.String(), agg: true})
		}
	}
	for i := 0; i < passes; i++ {
		dbs = append(dbs, tpch.Generate(0.001, seed*1000+int64(i)))
	}
	q4 := tpch.Q4()
	sp := core.Problem{Q1: q4.Correct, Q2: q4.Wrong[0], DB: dbs[0], Constraints: tpch.Constraints()}
	// One revision per burst: at two, the latency median would sit on the
	// edge between the Q16 and Q4 clusters.
	return newInprocBench(dbs, &ratest.Options{Constraints: tpch.Constraints()}, pairs, true,
		1, passes, sp, lineitemEdits(dbs[0], seed))
}

func newInprocBench(dbs []*relation.Database, opts *ratest.Options, pairs []pair, mayAgree bool,
	burst, passes int, sp core.Problem, edits *editStream) (bench, error) {
	for _, p := range pairs {
		for _, src := range []string{p.q1, p.q2} {
			q, err := raparser.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("%s: query text does not parse back: %w", p.key, err)
			}
			if q.String() != src {
				return nil, fmt.Errorf("%s: query text does not round-trip", p.key)
			}
		}
	}
	b := &inprocBench{dbs: dbs, opts: opts, pairs: pairs, mayAgree: mayAgree, burst: burst, passes: passes, sessProblem: sp, edits: edits}
	p := sp
	p.DB = sp.DB.Clone() // committed insertions mutate the session's instance
	ls, err := core.NewLiveSession(p)
	if err != nil {
		return nil, fmt.Errorf("preparing the session: %w", err)
	}
	b.ls, b.base = ls, ls.BaseSize()
	// Warm up: one explanation, so lazily built state (statistics, code
	// paths) is in place before the measured window.
	if _, _, err := b.explain(pairs[0], 0); err != nil {
		return nil, fmt.Errorf("warm-up explanation of %s: %w", pairs[0].key, err)
	}
	return b, nil
}

func (b *inprocBench) shape() string {
	sizes := make([]int, len(b.dbs))
	for i, db := range b.dbs {
		sizes[i] = db.Size()
	}
	return fmt.Sprintf("%d passes over |D|=%v, each %d explain pairs and %d session edits",
		b.passes, sizes, len(b.pairs), b.burst*(len(b.pairs)/reviseEvery))
}

func (b *inprocBench) close() {}

// explain is the grade op: parse both queries and explain them on dbs[db].
func (b *inprocBench) explain(p pair, db int) (*explained, *core.Stats, error) {
	q1, err := raparser.Parse(p.q1)
	if err != nil {
		return nil, nil, err
	}
	q2, err := raparser.Parse(p.q2)
	if err != nil {
		return nil, nil, err
	}
	ce, st, err := ratest.ExplainContext(context.Background(), q1, q2, b.dbs[db], b.opts)
	if b.mayAgree && errors.Is(err, core.ErrQueriesAgree) {
		err = nil
	}
	if err != nil {
		return nil, nil, err
	}
	return &explained{db: db, q1: q1, q2: q2, ce: ce}, st, nil
}

// tracedPassCost is about how many untraced passes one traced pass costs:
// each grade also runs untraced once, and its inputs are replayed.
const tracedPassCost = 3

// measure runs the fixed number of whole passes set up for the run, or a
// third of them when tracing, so a traced run takes about as long.
func (b *inprocBench) measure(_ time.Duration, rec *recorder, tr *tracer) {
	passes := b.passes
	if tr.on {
		passes = max(1, passes/tracedPassCost)
	}
	op := 0
	for pass := 0; pass < passes; pass++ {
		t0, ops := time.Now(), op
		for i := range b.pairs {
			b.grade(i, pass%len(b.dbs), op, rec, tr)
			op++
			for k := 0; k < b.burst && (i+1)%reviseEvery == 0; k++ {
				b.revise(op, rec, tr)
				op++
			}
		}
		rec.pass(op-ops, time.Since(t0))
	}
}

func (b *inprocBench) grade(i, db, op int, rec *recorder, tr *tracer) {
	p := b.pairs[i]
	if !tr.on {
		t0 := time.Now()
		e, _, err := b.explain(p, db)
		rec.op("grade", time.Since(t0))
		b.graded(i, e, err, rec)
		return
	}

	t0 := time.Now()
	_, _, _ = b.explain(p, db) // the untraced twin: its answer is the traced one's
	twin := time.Since(t0)

	root := tr.begin("op.grade", op, -1)
	s := tr.begin("raparser.parse", op, root)
	q1, err1 := raparser.Parse(p.q1)
	q2, err2 := raparser.Parse(p.q2)
	tr.end(s)
	var e *explained
	var err error
	if err = firstErr(err1, err2); err == nil {
		x := tr.begin("core.explain", op, root)
		var ce *core.Counterexample
		var st *core.Stats
		ce, st, err = ratest.ExplainContext(context.Background(), q1, q2, b.dbs[db], b.opts)
		tr.end(x)
		if b.mayAgree && errors.Is(err, core.ErrQueriesAgree) {
			err = nil
		}
		if err == nil {
			if st != nil {
				tr.deriveExplain(op, x, st)
				rec.solver(st)
			}
			e = &explained{db: db, q1: q1, q2: q2, ce: ce}
		}
	}
	tr.end(root)
	r := tr.get(root)
	rec.op("grade", r.End-r.Start)
	rec.twin(twin, r.End-r.Start)
	b.graded(i, e, err, rec)
	if err == nil {
		// Replay the op's inputs through the individual layer calls. SPJUD
		// pairs replay provenance evaluation too; Agg-Opt's provenance
		// evaluator is internal, so core.Stats times it.
		rr := tr.begin("replay", op, -1)
		replayLayers(op, rr, e.q1, e.q2, b.dbs[db], b.opts, e.ce, !p.agg, rec, tr)
		tr.end(rr)
	}
}

func (b *inprocBench) graded(i int, e *explained, err error, rec *recorder) {
	if err != nil {
		rec.fail("explaining %s: %v", b.pairs[i].key, err)
		return
	}
	e.pair = i
	b.results = append(b.results, *e)
	if e.ce != nil {
		rec.ceSize(fmt.Sprintf("%s@%d", b.pairs[i].key, e.db), e.ce.Size())
	}
}

// replayLayers runs an op's inputs through the individual layer calls,
// each under its own span: statistics, planning, plain evaluation,
// provenance evaluation of the first differing tuple (when prov is set),
// and verification of the counterexample. Both kinds of workload use it.
func replayLayers(op, root int, q1, q2 ra.Node, db *relation.Database, opts *ratest.Options,
	ce *core.Counterexample, prov bool, rec *recorder, tr *tracer) {
	s := tr.begin("engine.stats", op, root)
	engine.ComputeStats(db)
	tr.end(s)

	s = tr.begin("engine.plan", op, root)
	cat := engine.Catalog{DB: db}
	_, err1 := engine.Plan(engine.Optimize(q1, cat), db, engine.Options{})
	_, err2 := engine.Plan(engine.Optimize(q2, cat), db, engine.Options{})
	tr.end(s)
	if err := firstErr(err1, err2); err != nil {
		rec.fail("planning: %v", err)
	}

	s = tr.begin("engine.plain_eval", op, root)
	differs, d12, d21, err := core.Disagrees(q1, q2, db, opts.Params)
	tr.end(s)
	if err != nil {
		rec.fail("plain evaluation: %v", err)
		return
	}
	// Output sizes, counted outside any layer span.
	r1, err1 := engine.Eval(q1, db, opts.Params)
	r2, err2 := engine.Eval(q2, db, opts.Params)
	if err := firstErr(err1, err2); err == nil {
		rec.rowsOut(r1.Len() + r2.Len() + d12.Len() + d21.Len())
	}

	if prov && differs {
		qa, qb, t := q1, q2, relation.Tuple(nil)
		if d12.Len() > 0 {
			t = d12.Tuples[0]
		} else {
			qa, qb, t = q2, q1, d21.Tuples[0]
		}
		s = tr.begin("engine.prov_eval", op, root)
		pushed := core.PushDownTupleSelection(&ra.Diff{L: qa, R: qb}, t, db)
		_, err := engine.EvalProvOpts(pushed, db, opts.Params, engine.Options{})
		tr.end(s)
		if err != nil {
			rec.fail("provenance evaluation: %v", err)
		}
	}

	if ce != nil {
		s = tr.begin("core.verify", op, root)
		err := ratest.Verify(q1, q2, db, opts, ce)
		tr.end(s)
		if err != nil {
			rec.fail("verifying: %v", err)
		}
	}
}

func (b *inprocBench) revise(op int, rec *recorder, tr *tracer) {
	e := b.edits.next()
	ctx := context.Background()
	root := tr.begin("op.revise", op, -1)
	t0 := time.Now()
	s := tr.begin("core.session_update", op, root)
	_, err := b.ls.Update(ctx, e.up)
	tr.end(s)
	var g *core.LiveGrade
	if err == nil {
		s = tr.begin("core.session_grade", op, root)
		g, err = b.ls.Grade(ctx)
		tr.end(s)
	}
	d := time.Since(t0)
	tr.end(root)
	if root >= 0 {
		r := tr.get(root)
		d = r.End - r.Start
	}
	rec.op("revise", d)
	if err != nil || g == nil {
		rec.fail("session edit %d: %v", b.edits.step, err)
		return
	}
	b.edits.commit(e)
	if got := b.ls.BaseSize(); got != b.base+e.live {
		rec.fail("session edit %d: live size %d, want %d", b.edits.step, got, b.base+e.live)
	}
}

// check re-verifies every counterexample against its instance, confirms
// every "agree" answer with ratest.Equivalent (once per pair and instance),
// and replays the session's committed edits through a fresh session.
func (b *inprocBench) check(rec *recorder) {
	agree := map[[2]int]error{}
	for _, e := range b.results {
		key := b.pairs[e.pair].key
		if e.ce != nil {
			if err := ratest.Verify(e.q1, e.q2, b.dbs[e.db], b.opts, e.ce); err != nil {
				rec.fail("counterexample of %s does not verify: %v", key, err)
			}
			continue
		}
		k := [2]int{e.pair, e.db}
		err, seen := agree[k]
		if !seen {
			var eq bool
			if eq, err = ratest.Equivalent(e.q1, e.q2, b.dbs[e.db], b.opts.Params); err == nil && !eq {
				err = fmt.Errorf("answered agree, but the queries differ on the instance")
			}
			agree[k] = err
		}
		if err != nil {
			rec.fail("%s: %v", key, err)
		}
	}
	want, size, err := replaySession(b.sessProblem, b.edits.committed, rec)
	if err != nil {
		rec.fail("replaying the session: %v", err)
		return
	}
	got, err := b.ls.Grade(context.Background())
	if err != nil {
		rec.fail("grading the session: %v", err)
		return
	}
	if !sameGrade(got, want) || size != b.ls.BaseSize() {
		rec.fail("session grade %+v (size %d) differs from its replay %+v (size %d)", got, b.ls.BaseSize(), want, size)
	}
}

func (b *inprocBench) layerMetrics(m map[string]float64, rec *recorder, tr *tracer) {
	traceMetrics(m, rec, tr)
	inc, rep, fb := b.ls.Counters()
	if n := inc + rep + fb; n > 0 {
		m["core.session_incremental_frac"] = float64(inc) / float64(n)
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
