package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// maxFailureMessages bounds how many failure messages a run keeps.
const maxFailureMessages = 20

// recorder collects what one measured window produced. Clients of the HTTP
// workload share it, so every method locks.
type recorder struct {
	mu sync.Mutex

	grades, revises []float64 // per-op latency, ms
	passRates       []float64 // ops per second of each in-process pass
	wall            time.Duration
	// attempted counts ops; failed counts failed ops and failed checks.
	attempted, failed int
	failures          []string
	ce                map[string]int // counterexample size per pair

	// Trace-mode values.
	twinSum, tracedSum time.Duration // idempotent ops: untraced twin vs traced
	rows               []float64     // |Q1(D)|+|Q2(D)|+|diffs| per replayed grade
	explains, models   int           // explanations with core.Stats, models tried
	optimal            int           // explanations the solver proved optimal
	prepares           []float64     // core.NewLiveSession durations, ms
}

func (r *recorder) op(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	ms := float64(d) / float64(time.Millisecond)
	if class == "revise" {
		r.revises = append(r.revises, ms)
	} else {
		r.grades = append(r.grades, ms)
	}
}

// pass records the ops and duration of one whole pass.
func (r *recorder) pass(ops int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.passRates = append(r.passRates, float64(ops)/d.Seconds())
}

// fail records one failed op or check.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < maxFailureMessages {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// ceSize records the counterexample size found for a pair. The algorithms
// are deterministic, so every pass reports the same size; the total is
// the sum over distinct pairs.
func (r *recorder) ceSize(pair string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ce == nil {
		r.ce = map[string]int{}
	}
	if old, ok := r.ce[pair]; ok && old != n {
		fmt.Fprintf(os.Stderr, "e2ebench: counterexample size of %s changed from %d to %d\n", pair, old, n)
	}
	r.ce[pair] = n
}

func (r *recorder) ceTotal() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, v := range r.ce {
		n += v
	}
	return n
}

// twin records an idempotent op run both untraced and traced.
func (r *recorder) twin(untraced, traced time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.twinSum += untraced
	r.tracedSum += traced
}

func (r *recorder) rowsOut(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows = append(r.rows, float64(n))
}

func (r *recorder) solver(st *core.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.explains++
	r.models += st.ModelsTried
	if st.Optimal {
		r.optimal++
	}
}

func (r *recorder) prepare(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepares = append(r.prepares, ms(d))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile is the quantile reported as "p90": 0.9 when at least ten
// samples lie beyond it, else the highest quantile with ten samples beyond
// it, but never below the median.
func tailQuantile(n int) float64 {
	if n == 0 {
		return 0.5
	}
	return math.Max(0.5, math.Min(0.9, 1-10/float64(n)))
}

// quantile is the Harrell-Davis estimate of the p-quantile of xs: a
// Beta-weighted average of all order statistics instead of the one sample
// at a rank. Latencies here come in clusters, one per query pair, and a
// single rank often falls on the edge of a cluster; the weighted average
// does not jump when the samples on either side of that edge trade places.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// tail is the Harrell-Davis estimate at tailQuantile(len(xs)).
func tail(xs []float64) float64 { return quantile(xs, tailQuantile(len(xs))) }

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the continued fraction of Numerical Recipes (betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 1000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// env is the environment fingerprint printed with every result.
type env struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) env {
	e := env{
		Go: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", Dirty: "unknown", Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// go build stamps the commit when it builds inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value
			}
		}
	}
	return e
}
