// Command e2ebench is the repository's end-to-end benchmark. One process
// runs one named workload for a fixed time, checks every answer, and prints
// its metrics as the last line of standard output:
//
//	e2ebench --workload course-sweep --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (latency, throughput,
// allocations, counterexample sizes, set-up time); with --trace 1 it
// replays every operation through the individual layers (parser, planner,
// evaluator, solver, verifier, sessions, server), records spans, and
// reports the per-layer breakdown instead. README.md lists the workloads,
// the metrics and the layer each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// bench is one set-up workload instance.
type bench interface {
	// shape describes the generated inputs (op counts per pass).
	shape() string
	// measure runs whole passes of the workload for about the given time,
	// recording every op into rec (and spans into tr when tracing).
	measure(d time.Duration, rec *recorder, tr *tracer)
	// check verifies every recorded answer after the measured window.
	check(rec *recorder)
	// layerMetrics adds the workload's per-layer values (trace mode).
	layerMetrics(m map[string]float64, rec *recorder, tr *tracer)
	close()
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(seed int64, d time.Duration) (bench, error){
	"course-sweep":   setupCourseSweep,
	"tpch-agg":       setupTPCHAgg,
	"classroom-http": setupClassroomHTTP,
}

// setupsPerRun is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not decide it.
const setupsPerRun = 3

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: course-sweep, tpch-agg or classroom-http")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1 replays every op through the layers and reports per-layer metrics")
	spansDir := flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	setup, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}

	window := time.Duration(*seconds * float64(time.Second))
	var b bench
	var setupTimes []float64
	for i := 0; i < setupsPerRun; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		b, err = setup(*seed, window)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: set-up of %s failed: %v\n", *name, err)
			return 1
		}
	}
	defer b.close()

	fp, _ := json.Marshal(fingerprint(*seed)) // a struct of strings and ints always encodes
	fmt.Printf("env %s\n", fp)
	fmt.Printf("workload %s seed %d: %s\n", *name, *seed, b.shape())

	rec := &recorder{}
	tr := &tracer{on: *trace == 1, epoch: time.Now()}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	b.measure(window, rec, tr)
	rec.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)

	b.check(rec)

	ops := float64(rec.attempted)
	metrics := map[string]metric{}
	if tr.on {
		m := map[string]float64{
			"runtime.gc_cycles_per_op": float64(ms1.NumGC-ms0.NumGC) / ops,
			"runtime.gc_pause_ms":      float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / ops,
		}
		b.layerMetrics(m, rec, tr)
		for _, def := range perLayer {
			metrics[def.name] = metric{Value: m[def.name], Unit: def.unit}
		}
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			rec.fail("writing spans: %v", err)
		}
	} else {
		all := append(append([]float64(nil), rec.grades...), rec.revises...)
		// Throughput is the median over passes where a workload runs whole
		// passes one at a time, so one slow stretch of the run moves it less.
		rate := ops / rec.wall.Seconds()
		if len(rec.passRates) > 0 {
			rate = median(rec.passRates)
		}
		m := map[string]float64{
			"setup_s":          median(setupTimes),
			"ops_per_s":        rate,
			"latency_p50_ms":   quantile(all, 0.5),
			"latency_p90_ms":   tail(all),
			"grade_p50_ms":     quantile(rec.grades, 0.5),
			"grade_p90_ms":     tail(rec.grades),
			"revise_p50_ms":    quantile(rec.revises, 0.5),
			"revise_p90_ms":    tail(rec.revises),
			"allocs_per_op":    float64(ms1.Mallocs-ms0.Mallocs) / ops,
			"ce_tuples_total":  float64(rec.ceTotal()),
			"heap_retained_mb": float64(msEnd.HeapAlloc) / 1e6,
		}
		for _, def := range endToEnd {
			metrics[def.name] = metric{Value: m[def.name], Unit: def.unit}
		}
		fmt.Printf("samples: %d grades (tail at p%.0f), %d revises (tail at p%.0f), %d ops in %.2fs; failed_frac %.4g\n",
			len(rec.grades), 100*tailQuantile(len(rec.grades)), len(rec.revises), 100*tailQuantile(len(rec.revises)),
			rec.attempted, rec.wall.Seconds(), float64(rec.failed)/float64(max(rec.attempted, 1)))
	}
	for _, msg := range rec.failures {
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", msg)
	}

	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	correct := rec.failed == 0 && rec.attempted > 0
	out, err := json.Marshal(result{Correct: correct, Attempted: rec.attempted, Failed: rec.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"grade_p50_ms", "ms"},
	{"grade_p90_ms", "ms"},
	{"revise_p50_ms", "ms"},
	{"revise_p90_ms", "ms"},
	{"allocs_per_op", "count"},
	{"ce_tuples_total", "count"},
	{"heap_retained_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"raparser.parse_us", "us"},
	{"engine.stats_ms", "ms"},
	{"engine.plan_ms", "ms"},
	{"engine.plain_eval_ms", "ms"},
	{"engine.plain_eval_share", "frac"},
	{"engine.rows_out", "count"},
	{"engine.prov_eval_ms", "ms"},
	{"engine.prov_eval_share", "frac"},
	{"core.solver_ms", "ms"},
	{"core.solver_share", "frac"},
	{"core.models_tried", "count"},
	{"core.optimal_frac", "frac"},
	{"core.verify_ms", "ms"},
	{"core.session_prepare_ms", "ms"},
	{"core.session_update_us", "us"},
	{"core.session_incremental_frac", "frac"},
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.outside_core_ms", "ms"},
	{"server.plan_cache_hit_frac", "frac"},
	{"server.instance_cache_hit_frac", "frac"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}
