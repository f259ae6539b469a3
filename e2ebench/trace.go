package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed interval at a layer boundary. Spans of one op share
// the op id; a root span has parent -1. Times are offsets from the
// tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// disabled tracer records nothing. Each op has up to two roots: "op.<class>"
// (the op as a user runs it, with spans around each layer call and spans
// derived from the timings the layers return) and "replay" (the op's inputs
// replayed through the individual layer calls, each timed on its own).
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	return t.add(name, op, parent, t.now(), -1)
}

// end closes a span opened by begin.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span with known bounds: the derived spans that lay a
// layer's own reported timings inside the call that returned them.
func (t *tracer) add(name string, op, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

func (t *tracer) get(i int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i]
}

// seq lays derived child spans of the given durations end to end from
// start, clipped to limit, and returns where the last one ended.
func (t *tracer) seq(op, parent int, start, limit time.Duration, parts []part) time.Duration {
	for _, p := range parts {
		if p.d <= 0 {
			continue
		}
		end := min(start+p.d, limit)
		t.add(p.name, op, parent, start, end)
		start = end
	}
	return start
}

type part struct {
	name string
	d    time.Duration
}

// deriveExplain lays the core.Stats phase timings inside a core.explain
// span: plain eval, provenance eval and solver from the start, then the
// final verification (the part of the call after Stats.TotalTime).
func (t *tracer) deriveExplain(op, explain int, st *core.Stats) {
	if explain < 0 || st == nil {
		return
	}
	s := t.get(explain)
	cur := t.seq(op, explain, s.Start, s.End, []part{
		{"engine.plain_eval", st.RawEvalTime},
		{"engine.prov_eval", st.ProvEvalTime},
		{"core.solver", st.SolverTime},
	})
	if rest := s.End - s.Start - st.TotalTime; rest > 0 {
		t.add("core.verify", op, explain, max(cur, s.End-rest), s.End)
	}
}

// computeSelf sets each span's self time: its duration minus the part of
// its interval its children cover.
func (t *tracer) computeSelf() {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi time.Duration
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		s.Self = s.End - s.Start - covered
	}
}

// opSummary is one op's share of the trace.
type opSummary struct {
	wall    time.Duration // the op root's duration
	covered time.Duration // self time of the spans under the op root
	// layer is the self time per span name: from the replay root where the
	// layer was replayed, else from under the op root.
	layer map[string]time.Duration
}

// summarize computes self times and groups the spans by op.
func (t *tracer) summarize() []*opSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.computeSelf()
	root := make([]int, len(t.spans))
	own := map[int]map[string]time.Duration{}
	rep := map[int]map[string]time.Duration{}
	byOp := map[int]*opSummary{}
	var order []int
	for i, s := range t.spans {
		if s.Parent < 0 {
			root[i] = i
			if strings.HasPrefix(s.Name, "op.") {
				byOp[s.Op] = &opSummary{wall: s.End - s.Start}
				order = append(order, s.Op)
			}
			continue
		}
		root[i] = root[s.Parent]
		dst := own
		if t.spans[root[i]].Name == "replay" {
			dst = rep
		} else if o := byOp[s.Op]; o != nil {
			o.covered += s.Self
		}
		if dst[s.Op] == nil {
			dst[s.Op] = map[string]time.Duration{}
		}
		dst[s.Op][s.Name] += s.Self
	}
	out := make([]*opSummary, 0, len(order))
	for _, op := range order {
		o := byOp[op]
		o.layer = map[string]time.Duration{}
		for k, v := range own[op] {
			o.layer[k] = v
		}
		for k, v := range rep[op] {
			o.layer[k] = v
		}
		out = append(out, o)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

// traceMetrics adds the per-layer metrics every workload derives the same
// way from its spans and recorder.
func traceMetrics(m map[string]float64, rec *recorder, tr *tracer) {
	ops := tr.summarize()
	var wall, covered time.Duration
	sum := map[string]time.Duration{}
	per := map[string][]float64{}
	for _, o := range ops {
		wall += o.wall
		covered += o.covered
		for k, v := range o.layer {
			sum[k] += v
			per[k] = append(per[k], float64(v))
		}
	}
	medianIn := func(name string, unit time.Duration) float64 {
		return median(per[name]) / float64(unit)
	}
	share := func(name string) float64 {
		if wall == 0 {
			return 0
		}
		return float64(sum[name]) / float64(wall)
	}
	m["raparser.parse_us"] = medianIn("raparser.parse", time.Microsecond)
	m["engine.stats_ms"] = medianIn("engine.stats", time.Millisecond)
	m["engine.plan_ms"] = medianIn("engine.plan", time.Millisecond)
	m["engine.plain_eval_ms"] = medianIn("engine.plain_eval", time.Millisecond)
	m["engine.plain_eval_share"] = share("engine.plain_eval")
	m["engine.prov_eval_ms"] = medianIn("engine.prov_eval", time.Millisecond)
	m["engine.prov_eval_share"] = share("engine.prov_eval")
	m["core.solver_ms"] = medianIn("core.solver", time.Millisecond)
	m["core.solver_share"] = share("core.solver")
	m["core.verify_ms"] = medianIn("core.verify", time.Millisecond)
	m["core.session_update_us"] = medianIn("core.session_update", time.Microsecond)
	if wall > 0 {
		m["trace.coverage_frac"] = float64(covered) / float64(wall)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	m["engine.rows_out"] = median(rec.rows)
	m["core.session_prepare_ms"] = median(rec.prepares)
	if rec.explains > 0 {
		m["core.models_tried"] = float64(rec.models) / float64(rec.explains)
		m["core.optimal_frac"] = float64(rec.optimal) / float64(rec.explains)
	}
	if rec.twinSum > 0 {
		m["trace.overhead_frac"] = float64(rec.tracedSum)/float64(rec.twinSum) - 1
	}
}
