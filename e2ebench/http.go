package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/server"
)

// httpClients is the number of closed-loop clients of classroom-http.
const httpClients = 2

// submission is one /grade input and the grade it must receive.
type submission struct {
	key      string
	question string
	q1, q    string // reference and submitted query text
	want     string // "pass" or "fail"
}

// httpClient is one closed-loop client: its own keep-alive connection
// pool, its own live-grading session, and the answers it received.
type httpClient struct {
	id      int
	sess    string
	sessQ1  string
	sessQ2  string
	edits   *editStream
	mirror  *core.LiveSession // local replica of the session, traced runs only
	answers []answer
	stats   httpLayerStats
}

// answer is one /grade response kept for the output check.
type answer struct {
	sub  int
	ids  []int
	size int
}

// httpLayerStats are the serving-layer timings a client observed.
type httpLayerStats struct {
	handler, transport, outsideCore []float64
}

// httpBench serves server.New(server.Config{}) on a loopback listener
// inside the benchmark process and drives it over HTTP.
type httpBench struct {
	spec    server.InstanceSpec
	db      *relation.Database // the same instance, regenerated locally
	subs    []submission
	parsed  map[string]ra.Node
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	clients []*httpClient
	size    int // live size of a fresh session

	stats0 map[string]any
}

func setupClassroomHTTP(seed int64, _ time.Duration) (bench, error) {
	spec := server.InstanceSpec{Kind: "course", Size: 1000, Seed: seed}
	db := course.GenerateDB(spec.Size, seed)
	found, err := course.DiscoveredWrong(db, course.WrongQueryBank(db, 4))
	if err != nil {
		return nil, err
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("no wrong query is discovered on the instance")
	}
	refs := map[string]string{}
	b := &httpBench{spec: spec, db: db, parsed: map[string]ra.Node{}}
	for _, q := range course.Questions() {
		refs[q.ID] = q.Correct.String()
		b.subs = append(b.subs, submission{key: q.ID + "/ref", question: q.ID, q1: refs[q.ID], q: refs[q.ID], want: "pass"})
	}
	for i, w := range found {
		b.subs = append(b.subs, submission{key: fmt.Sprintf("%s#%d", w.Question, i), question: w.Question,
			q1: refs[w.Question], q: w.Query.String(), want: "fail"})
	}
	for _, s := range b.subs {
		for _, src := range []string{s.q1, s.q} {
			if b.parsed[src] == nil {
				q, err := raparser.Parse(src)
				if err != nil {
					return nil, fmt.Errorf("%s: query text does not parse back: %w", s.key, err)
				}
				b.parsed[src] = q
			}
		}
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients, DisableCompression: true}}

	for c := 0; c < httpClients; c++ {
		w := found[c%len(found)]
		hc := &httpClient{id: c, sessQ1: refs[w.Question], sessQ2: w.Query.String(), edits: registrationEdits(db, seed+int64(c))}
		var resp server.SessionResponse
		code, err := b.call(http.MethodPost, "/session",
			server.SessionCreateRequest{Q1: hc.sessQ1, Q2: hc.sessQ2, Instance: spec}, &resp)
		if err != nil || code != http.StatusOK {
			b.close()
			return nil, fmt.Errorf("creating session %d: HTTP %d %v %s", c, code, err, resp.Error)
		}
		hc.sess, b.size = resp.SessionID, resp.BaseSize
		mirror, err := core.NewLiveSession(b.sessionProblem(hc, db.Clone()))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("preparing the local session replica: %w", err)
		}
		hc.mirror = mirror
		b.clients = append(b.clients, hc)
	}
	// Warm up: grade every submission once, which also fills the server's
	// instance and plan caches.
	for i, s := range b.subs {
		var resp server.GradeResponse
		code, err := b.call(http.MethodPost, "/grade", b.gradeRequest(s), &resp)
		if err != nil || code != http.StatusOK || resp.Grade != s.want {
			b.close()
			return nil, fmt.Errorf("warm-up grade of submission %d (%s): HTTP %d %v grade %q, want %q", i, s.key, code, err, resp.Grade, s.want)
		}
	}
	return b, nil
}

func (b *httpBench) sessionProblem(hc *httpClient, db *relation.Database) core.Problem {
	return core.Problem{Q1: b.parsed[hc.sessQ1], Q2: b.parsed[hc.sessQ2], DB: db, Constraints: course.Constraints()}
}

func (b *httpBench) gradeRequest(s submission) server.GradeRequest {
	return server.GradeRequest{Question: s.question, Q: s.q, Instance: b.spec}
}

func (b *httpBench) shape() string {
	pass := 0
	for _, s := range b.subs {
		if s.want == "pass" {
			pass++
		}
	}
	return fmt.Sprintf("|D|=%d, %d clients, each pass %d /grade submissions (%d pass, %d fail) and %d session edits",
		b.db.Size(), httpClients, len(b.subs), pass, len(b.subs)-pass, len(b.subs)/reviseEvery)
}

func (b *httpBench) close() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // the listener is loopback-only; nothing to drain on failure
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("e2ebench: server stopped with %v\n", err)
	}
	b.client.CloseIdleConnections()
	b.hs = nil
}

// call sends one JSON request and decodes the JSON answer into out (when
// not nil), reporting the status code.
func (b *httpBench) call(method, path string, in, out any) (int, error) {
	code, _, err := b.callTimed(method, path, in, out, nil)
	return code, err
}

// callTimes bound the round trip of a traced call (request written to body
// read, without JSON encoding and decoding), as tracer offsets.
type callTimes struct {
	rtStart, rtEnd time.Duration
}

func (b *httpBench) callTimed(method, path string, in, out any, tr *tracer) (int, callTimes, error) {
	var ct callTimes
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, ct, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, b.base+path, body)
	if err != nil {
		return 0, ct, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		ct.rtStart = tr.now()
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, ct, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		ct.rtEnd = tr.now()
	}
	if err != nil {
		return resp.StatusCode, ct, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, ct, fmt.Errorf("decoding %s answer: %w", path, err)
		}
	}
	return resp.StatusCode, ct, nil
}

// measure runs both clients until d has passed, each finishing its pass.
func (b *httpBench) measure(d time.Duration, rec *recorder, tr *tracer) {
	until := time.Now().Add(d)
	if tr.on {
		b.stats0 = b.serverStats()
	}
	var wg sync.WaitGroup
	for _, hc := range b.clients {
		wg.Add(1)
		go func(hc *httpClient) {
			defer wg.Done()
			b.loop(hc, until, rec, tr)
		}(hc)
	}
	wg.Wait()
}

// loop is one client's closed loop: whole passes over the submissions,
// starting at its own offset, with a session edit after every third grade.
func (b *httpBench) loop(hc *httpClient, until time.Time, rec *recorder, tr *tracer) {
	n := len(b.subs)
	op := hc.id << 32
	for {
		for j := 0; j < n; j++ {
			b.grade(hc, (hc.id*n/httpClients+j)%n, op, rec, tr)
			op++
			if (j+1)%reviseEvery == 0 {
				b.revise(hc, op, rec, tr)
				op++
			}
		}
		if !time.Now().Before(until) {
			return
		}
	}
}

func (b *httpBench) grade(hc *httpClient, i, op int, rec *recorder, tr *tracer) {
	s := b.subs[i]
	req := b.gradeRequest(s)
	var resp server.GradeResponse
	var code int
	var err error
	if !tr.on {
		t0 := time.Now()
		code, err = b.call(http.MethodPost, "/grade", req, &resp)
		rec.op("grade", time.Since(t0))
	} else {
		t0 := time.Now()
		_, _ = b.call(http.MethodPost, "/grade", req, nil) // the untraced twin
		twin := time.Since(t0)
		root := tr.begin("op.grade", op, -1)
		var ct callTimes
		code, ct, err = b.callTimed(http.MethodPost, "/grade", req, &resp, tr)
		tr.end(root)
		r := tr.get(root)
		rec.op("grade", r.End-r.Start)
		rec.twin(twin, r.End-r.Start)
		if err == nil {
			b.deriveServer(hc, op, root, ct, resp.ElapsedMS, resp.Stats, tr)
			if resp.Stats != nil {
				rec.solver(&core.Stats{ModelsTried: resp.Stats.ModelsTried, Optimal: resp.Stats.Optimal})
			}
		}
	}
	if err != nil || code != http.StatusOK || resp.Degraded != "" || resp.Grade != s.want {
		rec.fail("/grade %s: HTTP %d %v status %q degraded %q grade %q, want %q: %s",
			s.key, code, err, resp.Status, resp.Degraded, resp.Grade, s.want, resp.Error)
		return
	}
	a := answer{sub: i}
	if ce := resp.Counterexample; ce != nil {
		a.ids, a.size = ce.IDs, ce.Size
		rec.ceSize(s.key, ce.Size)
	}
	hc.answers = append(hc.answers, a)
	if tr.on {
		root := tr.begin("replay", op, -1)
		var ce *core.Counterexample
		if s.want == "fail" {
			ce = b.counterexample(a.ids)
		}
		opts := &ratest.Options{Constraints: course.Constraints()}
		s0 := tr.begin("raparser.parse", op, root)
		q1, err1 := raparser.Parse(s.q1)
		q2, err2 := raparser.Parse(s.q)
		tr.end(s0)
		if err := firstErr(err1, err2); err != nil {
			rec.fail("parsing %s: %v", s.key, err)
		} else {
			replayLayers(op, root, q1, q2, b.db, opts, ce, true, rec, tr)
		}
		tr.end(root)
	}
}

// deriveServer lays the server's reported timings inside the traced round
// trip: the handler's elapsed time in the middle, transport on both sides,
// and within the handler the explanation's phases from its stats.
func (b *httpBench) deriveServer(hc *httpClient, op, root int, ct callTimes, elapsedMS float64, st *server.StatsJSON, tr *tracer) {
	elapsed := time.Duration(elapsedMS * float64(time.Millisecond))
	rt := ct.rtEnd - ct.rtStart
	slack := max(rt-elapsed, 0)
	hs, he := ct.rtStart+slack/2, ct.rtEnd-slack/2
	tr.add("server.transport", op, root, ct.rtStart, hs)
	h := tr.add("server.handler", op, root, hs, he)
	tr.add("server.transport", op, root, he, ct.rtEnd)
	hc.stats.handler = append(hc.stats.handler, elapsedMS)
	hc.stats.transport = append(hc.stats.transport, ms(slack))
	if st == nil {
		return
	}
	total := time.Duration(st.TotalMS * float64(time.Millisecond))
	x := tr.add("core.explain", op, h, hs, min(hs+total, he))
	tr.seq(op, x, hs, min(hs+total, he), []part{
		{"engine.plain_eval", time.Duration(st.RawEvalMS * float64(time.Millisecond))},
		{"engine.prov_eval", time.Duration(st.ProvEvalMS * float64(time.Millisecond))},
		{"core.solver", time.Duration(st.SolverMS * float64(time.Millisecond))},
	})
	hc.stats.outsideCore = append(hc.stats.outsideCore, elapsedMS-st.TotalMS)
}

func (b *httpBench) counterexample(ids []int) *core.Counterexample {
	keep := map[relation.TupleID]bool{}
	tids := make([]relation.TupleID, len(ids))
	for i, id := range ids {
		keep[relation.TupleID(id)] = true
		tids[i] = relation.TupleID(id)
	}
	return &core.Counterexample{DB: b.db.Subinstance(keep), IDs: tids}
}

func (b *httpBench) revise(hc *httpClient, op int, rec *recorder, tr *tracer) {
	e := hc.edits.next()
	req := server.SessionReviseRequest{Ops: e.ops}
	path := "/session/" + hc.sess + "/revise"
	var resp server.SessionResponse
	var code int
	var err error
	if !tr.on {
		t0 := time.Now()
		code, err = b.call(http.MethodPost, path, req, &resp)
		rec.op("revise", time.Since(t0))
	} else {
		root := tr.begin("op.revise", op, -1)
		var ct callTimes
		code, ct, err = b.callTimed(http.MethodPost, path, req, &resp, tr)
		tr.end(root)
		r := tr.get(root)
		rec.op("revise", r.End-r.Start)
		if err == nil {
			b.deriveServer(hc, op, root, ct, resp.ElapsedMS, nil, tr)
		}
	}
	if err != nil || code != http.StatusOK || (resp.Status != server.StatusOK && resp.Status != server.StatusAgree) {
		rec.fail("session %s edit %d: HTTP %d %v status %q: %s", hc.sess, hc.edits.step, code, err, resp.Status, resp.Error)
		return
	}
	hc.edits.commit(e)
	if resp.BaseSize != b.size+e.live {
		rec.fail("session %s edit %d: live size %d, want %d", hc.sess, hc.edits.step, resp.BaseSize, b.size+e.live)
	}
	if tr.on {
		// Replay the edit on the local replica: the session layer without
		// the server around it.
		root := tr.begin("replay", op, -1)
		ctx := context.Background()
		s := tr.begin("core.session_update", op, root)
		_, err := hc.mirror.Update(ctx, e.up)
		tr.end(s)
		var g *core.LiveGrade
		if err == nil {
			s = tr.begin("core.session_grade", op, root)
			g, err = hc.mirror.Grade(ctx)
			tr.end(s)
		}
		tr.end(root)
		if err != nil {
			rec.fail("replica of session %s: %v", hc.sess, err)
		} else if g.Size12 != resp.Size12 || g.Size21 != resp.Size21 {
			rec.fail("session %s edit %d: served sizes %d/%d, replica %d/%d", hc.sess, hc.edits.step, resp.Size12, resp.Size21, g.Size12, g.Size21)
		}
	}
}

// check re-verifies every served counterexample from its ids against the
// locally regenerated instance, cross-checks every pass with
// ratest.Equivalent, and compares each session's final grade with a fresh
// replay of its committed edits. Identical answers are checked once.
func (b *httpBench) check(rec *recorder) {
	opts := &ratest.Options{Constraints: course.Constraints()}
	verdict := map[string]error{}
	for _, hc := range b.clients {
		for _, a := range hc.answers {
			s := b.subs[a.sub]
			q1, q2 := b.parsed[s.q1], b.parsed[s.q]
			key := fmt.Sprint(a.sub, a.ids)
			err, seen := verdict[key]
			if !seen {
				if s.want == "pass" {
					eq, e := ratest.Equivalent(q1, q2, b.db, nil)
					if err = e; err == nil && !eq {
						err = fmt.Errorf("graded pass, but the queries differ on the instance")
					}
				} else {
					ce := b.counterexample(a.ids)
					if err = ratest.Verify(q1, q2, b.db, opts, ce); err == nil && ce.Size() != a.size {
						err = fmt.Errorf("counterexample has %d tuples, answer says %d", ce.Size(), a.size)
					}
				}
				verdict[key] = err
			}
			if err != nil {
				rec.fail("/grade %s: %v", s.key, err)
			}
		}
		var got server.SessionResponse
		code, err := b.call(http.MethodGet, "/session/"+hc.sess, nil, &got)
		if err != nil || code != http.StatusOK {
			rec.fail("reading session %s: HTTP %d %v", hc.sess, code, err)
			continue
		}
		want, size, err := replaySession(b.sessionProblem(hc, b.db), hc.edits.committed, rec)
		if err != nil {
			rec.fail("replaying session %s: %v", hc.sess, err)
			continue
		}
		agree := got.Status == server.StatusAgree
		if agree != want.Agree || got.Size12 != want.Size12 || got.Size21 != want.Size21 || got.BaseSize != size {
			rec.fail("session %s: served %s %d/%d size %d, replay agree=%v %d/%d size %d", hc.sess,
				got.Status, got.Size12, got.Size21, got.BaseSize, want.Agree, want.Size12, want.Size21, size)
		}
	}
}

// serverStats reads /stats.
func (b *httpBench) serverStats() map[string]any {
	var out map[string]any
	if _, err := b.call(http.MethodGet, "/stats", nil, &out); err != nil {
		return nil
	}
	return out
}

// statNum reads a number at a path of nested /stats objects, 0 if absent.
func statNum(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[k]
	}
	f, _ := cur.(float64)
	return f
}

func (b *httpBench) layerMetrics(m map[string]float64, rec *recorder, tr *tracer) {
	traceMetrics(m, rec, tr)
	var st httpLayerStats
	for _, hc := range b.clients {
		st.handler = append(st.handler, hc.stats.handler...)
		st.transport = append(st.transport, hc.stats.transport...)
		st.outsideCore = append(st.outsideCore, hc.stats.outsideCore...)
	}
	m["server.handler_ms"] = median(st.handler)
	m["server.transport_ms"] = median(st.transport)
	m["server.outside_core_ms"] = median(st.outsideCore)

	s1 := b.serverStats()
	delta := func(path ...string) float64 { return statNum(s1, path...) - statNum(b.stats0, path...) }
	frac := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	m["server.plan_cache_hit_frac"] = frac(delta("plan_cache", "hits"), delta("plan_cache", "misses"))
	m["server.instance_cache_hit_frac"] = frac(delta("instance_cache", "hits"), delta("instance_cache", "misses"))
	inc := delta("sessions", "revisions", "incremental")
	m["core.session_incremental_frac"] = frac(inc, delta("sessions", "revisions", "reprepare")+delta("sessions", "revisions", "fallback"))
}
