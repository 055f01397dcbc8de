// Command padbench is the repository's benchmark. One invocation runs one
// workload for a fixed time through the public entry points its users call
// (check.VerifyRecoverable, check.Verify, the jobs queue behind
// cmd/priceadaptive), checks every output against the answers pinned in
// expected.json, and prints one JSON object as its last line of output:
// the end-to-end metrics, or with -trace 1 the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash .padbench/run.sh --workload recover-tournament3 --seed 1 --seconds 58 --trace 0
//
// README.md in this directory says why each workload was chosen and which
// end-to-end metric each per-layer metric is predicted to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	// One P: every workload is single-threaded, and on a shared 2-vCPU host
	// a second P ties each of the thousands of GC cycles per run to the
	// other vCPU's steal time; a check.Verify run of anderson n=6 then
	// spread 0.76 (IQR over median) across runs, against about 0.08 with
	// one P.
	runtime.GOMAXPROCS(1)
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "padbench:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, exp))
}

// metric is one named, united figure the benchmark reports.
type metric struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer). A
// layer the workload never calls reports 0.
var perLayer = func() []metric {
	m := []metric{
		{"por.facts_s", "s"},
		{"check.explore_s", "s"},
		{"check.states_per_s", "1/s"},
		{"check.transitions_per_s", "1/s"},
		{"check.alloc_mb", "MB"},
		{"check.allocs_per_state", "count"},
		{"check.gc_cpu_s", "s"},
		{"check.peak_live_heap_mb", "MB"},
	}
	for _, ph := range phases {
		m = append(m,
			metric{"vmprog." + ph + ".ns", "ns"},
			metric{"vmprog." + ph + ".allocs", "count"},
			metric{"vmprog." + ph + ".bytes", "B"})
	}
	m = append(m, metric{"check.unattributed_s", "s"})
	for i := 1; i <= 11; i++ {
		m = append(m, metric{fmt.Sprintf("jobs.e%d_s", i), "s"})
	}
	m = append(m,
		metric{"jobs.overhead_s", "s"},
		metric{"jobs.store_open_s", "s"},
		metric{"tso.step.ns", "ns"},
		metric{"tso.step.allocs", "count"},
		metric{"tso.step.bytes", "B"},
		metric{"trace.overhead_s", "s"})
	return m
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workdir  string
}

// setupWindow is how long a run times extra set-ups before each operation.
// Set-up takes well under a millisecond, so setup_s is the median over the
// hundreds of set-ups these windows hold, spread over the whole run so that
// one burst of host contention does not shift it.
const setupWindow = 250 * time.Millisecond

// runTimeout bounds a whole invocation; an operation still running then
// fails, so the process always exits.
const runTimeout = 170 * time.Second

// run executes one benchmark invocation and returns the process exit code:
// 0 when every operation's output matched its pinned answer, 1 when one did
// not or failed, 2 on a usage error (no result printed).
func run(args []string, stdout, stderr io.Writer, exp *expected) int {
	fs := flag.NewFlagSet("padbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed selecting the phase-probe and tso-probe samples (the workloads themselves are exhaustive)")
	fs.Float64Var(&cfg.seconds, "seconds", 58, "how long the run measures, in seconds")
	traceN := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs (tournament n=2 with 1 crash, e4+e5)")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "padbench-work"), "directory for job stores and the trace artifact")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceN != 0 && *traceN != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "padbench: usage: -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	cfg.trace = *traceN == 1
	w, err := newWorkload(cfg, exp)
	if err != nil {
		fmt.Fprintln(stderr, "padbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "padbench:", err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	host := hostInfo()
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d smoke %v\n", cfg.workload, cfg.seed, cfg.seconds, *traceN, cfg.smoke)

	var res result
	if cfg.trace {
		res = tracedRun(ctx, cfg, w, stderr)
	} else {
		res = untracedRun(ctx, cfg, w, stderr)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := finalLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]finalMetric{}}
	for _, m := range want {
		xs := res.samples[m.name]
		q := quartiles(xs)
		fmt.Fprintf(stdout, "metric %-26s median %-14.6g q1 %-14.6g q3 %-14.6g n %-3d %s\n", m.name, median(xs), q[0], q[2], len(xs), m.unit)
	}
	for _, m := range want {
		out.Metrics[m.name] = finalMetric{Value: median(res.samples[m.name]), Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "padbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// finalLine is the last line of output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run measured: per-metric samples and operation counts.
type result struct {
	attempted, failed int
	samples           map[string][]float64
}

func (r *result) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// errMismatch marks an output that differs from its pinned answer.
var errMismatch = errors.New("output differs from the pinned answer")

// opTimes is one operation's end-to-end measurement.
type opTimes struct {
	wall, cpu, setup, rssMB float64
}

// runOp runs one operation (fresh set-up, the timed call, the output
// check) from a collected, scavenged heap, so each starts from the same
// memory state and peak_rss_mb is this operation's own peak.
func runOp(ctx context.Context, w workload, tr *tracer) (opTimes, error) {
	o := w.newOp()
	defer o.close()
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := o.setup(tr)
	t1 := time.Now()
	if err == nil {
		err = o.call(ctx, tr)
	}
	t2 := time.Now()
	cpu1 := cpuSeconds()
	return opTimes{
		wall:  t2.Sub(t0).Seconds(),
		cpu:   cpu1 - cpu0,
		setup: t1.Sub(t0).Seconds(),
		rssMB: peakRSSMB(),
	}, err
}

// timeSetups times bare set-ups (each torn down again) for setupWindow.
func timeSetups(w workload) ([]float64, error) {
	var xs []float64
	for start := time.Now(); time.Since(start) < setupWindow; {
		o := w.newOp()
		t0 := time.Now()
		err := o.setup(nil)
		d := time.Since(t0).Seconds()
		o.close()
		if err != nil {
			return nil, err
		}
		xs = append(xs, d)
	}
	return xs, nil
}

// untracedRun repeats set-up timing and an operation while the next pair
// is expected to end within the run's seconds (always at least once).
func untracedRun(ctx context.Context, cfg config, w workload, stderr io.Writer) result {
	res := result{samples: map[string][]float64{}}
	start := time.Now()
	var walls []float64
	for res.attempted == 0 || time.Since(start).Seconds()+setupWindow.Seconds()+median(walls) <= cfg.seconds {
		res.attempted++
		setups, err := timeSetups(w)
		var t opTimes
		if err == nil {
			t, err = runOp(ctx, w, nil)
		}
		if err != nil {
			fmt.Fprintf(stderr, "padbench: %s operation %d: %v\n", cfg.workload, res.attempted, err)
			res.failed++
			break
		}
		fmt.Fprintf(stderr, "padbench: %s operation %d: wall %.4fs cpu %.4fs setup %.6fs peak rss %.2fMB\n", cfg.workload, res.attempted, t.wall, t.cpu, t.setup, t.rssMB)
		walls = append(walls, t.wall)
		res.add("wall_s", t.wall)
		res.add("cpu_s", t.cpu)
		res.add("peak_rss_mb", t.rssMB)
		for _, s := range append(setups, t.setup) {
			res.add("setup_s", s)
		}
	}
	return res
}

// tracedRun alternates an untraced and a traced operation while the next
// pair is expected to end within the run's seconds (always at least one
// pair), then runs the workload's layer probes. Per-layer metrics come from
// the traced operations and the probes; trace.overhead_s is the median
// traced wall time minus the median untraced one.
func tracedRun(ctx context.Context, cfg config, w workload, stderr io.Writer) result {
	res := result{samples: map[string][]float64{}}
	tr := newTracer()
	start := time.Now()
	var plain, traced []float64
	for res.attempted == 0 || time.Since(start).Seconds()+median(plain)+median(traced) <= cfg.seconds {
		for _, t := range []*tracer{nil, tr} {
			res.attempted++
			ot, err := runOp(ctx, w, t)
			if err != nil {
				fmt.Fprintf(stderr, "padbench: %s operation %d: %v\n", cfg.workload, res.attempted, err)
				res.failed++
				continue
			}
			fmt.Fprintf(stderr, "padbench: %s operation %d (traced %v): wall %.4fs\n", cfg.workload, res.attempted, t != nil, ot.wall)
			if t == nil {
				plain = append(plain, ot.wall)
			} else {
				traced = append(traced, ot.wall)
			}
		}
		if res.failed > 0 {
			break
		}
	}
	if res.failed == 0 {
		if err := w.probe(tr, cfg.seed); err != nil {
			fmt.Fprintf(stderr, "padbench: %s probe: %v\n", cfg.workload, err)
			res.attempted++
			res.failed++
		}
	}
	for name, xs := range tr.values {
		for _, x := range xs {
			res.add(name, x)
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		res.add("trace.overhead_s", median(traced)-median(plain))
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintf(stderr, "padbench: writing trace: %v\n", err)
	} else {
		fmt.Fprintf(stderr, "padbench: trace written to %s\n", path)
	}
	return res
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4); for
// fewer than two samples every cut point is the median.
func quartiles(xs []float64) [3]float64 {
	if len(xs) < 2 {
		m := median(xs)
		return [3]float64{m, m, m}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
