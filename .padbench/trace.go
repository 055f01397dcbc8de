package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"priceadaptive/internal/check"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/obsv"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// tracer records the spans the benchmark's own code draws around its calls
// into each layer, and the per-layer values measured there. Every method
// is a no-op on a nil tracer, which is how untraced operations run.
type tracer struct {
	t0     time.Time
	obs    *obsv.Tracer
	values map[string][]float64
	// states and transitions are the counts of the last traced checker
	// call, which the phase probe needs for check.unattributed_s.
	states, transitions int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), obs: obsv.NewTracer(), values: map[string][]float64{}}
}

// span records [start, end) as a Chrome trace "X" event, in microseconds
// since the tracer was made.
func (t *tracer) span(name string, start, end time.Time, args map[string]int) {
	if t == nil {
		return
	}
	t.obs.Phase(name, int(start.Sub(t.t0).Microseconds()), int(end.Sub(t.t0).Microseconds()), args)
}

// add records one sample of a per-layer metric.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.values[name] = append(t.values[name], v)
}

// write saves the spans as Chrome trace_event JSON, the format
// internal/obsv exports for the simulator.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.obs.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callMetrics are the runtime/metrics deltas taken around a checker call.
var callMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeapEvery is how often the live heap is sampled during a traced
// call; the metric itself only changes once per GC cycle.
const liveHeapEvery = 5 * time.Millisecond

// callProbe measures one traced checker call.
type callProbe struct {
	start  time.Time
	before []metrics.Sample
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
}

// startCall begins measuring a checker call: runtime/metrics counters now,
// and a goroutine sampling the live heap until endCall.
func (t *tracer) startCall() *callProbe {
	if t == nil {
		return nil
	}
	p := &callProbe{before: readMetrics(callMetrics...), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(liveHeapEvery)
		defer tick.Stop()
		for {
			p.peak = max(p.peak, readMetrics(liveHeapMetric)[0].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	p.start = time.Now()
	return p
}

// endCall finishes the measurement begun by startCall and records the
// check.* metrics of a call that explored states and transitions.
func (t *tracer) endCall(p *callProbe, name string, states, transitions int) {
	if t == nil {
		return
	}
	end := time.Now()
	close(p.stop)
	<-p.done
	after := readMetrics(callMetrics...)
	peak := max(p.peak, readMetrics(liveHeapMetric)[0].Value.Uint64())
	d := end.Sub(p.start).Seconds()
	allocBytes := after[0].Value.Uint64() - p.before[0].Value.Uint64()
	allocObjs := after[1].Value.Uint64() - p.before[1].Value.Uint64()
	t.span(name, p.start, end, map[string]int{"states": states, "transitions": transitions})
	t.add("check.explore_s", d)
	t.add("check.states_per_s", float64(states)/d)
	t.add("check.transitions_per_s", float64(transitions)/d)
	t.add("check.alloc_mb", float64(allocBytes)/1e6)
	t.add("check.allocs_per_state", float64(allocObjs)/float64(states))
	t.add("check.gc_cpu_s", after[2].Value.Float64()-p.before[2].Value.Float64())
	t.add("check.peak_live_heap_mb", float64(peak)/1e6)
	t.states, t.transitions = states, transitions
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// phases are the engine operations the phase probe times, in the order an
// exploration step uses them: enumerate a state's decisions, then per
// transition clone the parent, apply the decision, canonicalize (which
// clones again) and hash.
var phases = []string{"enum", "clone", "apply", "canon", "hash"}

// hashSink keeps the timed hash calls' results live.
var hashSink uint64

const (
	// probeStates is the size of the phase probe's state sample.
	probeStates = 1000
	// probeWalk bounds each random walk the sample is drawn from.
	probeWalk = 64
	// probeReps is how often each phase is timed over the sample; the
	// median batch counts.
	probeReps = 5
)

// phaseProbe times the vmprog engine operations one exploration step uses,
// per call, on the workload's own engine (its reduction facts installed)
// over a seeded sample of its reachable states: the states along random
// walks from the initial state, each paired with the decision the walk took
// from it. check.unattributed_s is then the traced call's explore time
// minus what these per-call costs account for at the call's own counts
// (transitions for clone, apply, canon and hash; states for enum): an
// estimate of the time spent elsewhere (seen-set insert, breadcrumbs,
// co-reachability, frontier bookkeeping).
func phaseProbe(tr *tracer, spec checkerSpec, seed int64) error {
	start := time.Now()
	o := &checkerOp{spec: spec}
	if err := o.setup(nil); err != nil {
		return err
	}
	eng, err := vmprog.NewEngineOrdering(o.prog, spec.n, tso.TSO)
	if err != nil {
		return err
	}
	if err := eng.UsePruning(check.ReduceFacts(o.facts, check.ReduceFull)); err != nil {
		return err
	}
	states, decs, err := sampleStates(eng, spec.crash, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	n := len(states)
	clones := make([]*vmprog.State, n)
	canon := make([]*vmprog.State, n)
	var applyErr error
	bodies := map[string]func(){
		"enum": func() {
			for _, s := range states {
				eng.EnabledDecisions(s, spec.crash)
			}
		},
		"clone": func() {
			for i, s := range states {
				clones[i] = s.Clone()
			}
		},
		"apply": func() {
			for i, c := range clones {
				if err := eng.Apply(c, decs[i]); err != nil {
					applyErr = err
				}
			}
		},
		"canon": func() {
			for i, c := range clones {
				canon[i], _ = eng.CanonicalState(c)
			}
		},
		"hash": func() {
			for _, c := range canon {
				hashSink ^= eng.Hash(c)
			}
		},
	}
	ns := map[string][]float64{}
	allocs := map[string][]float64{}
	bytes := map[string][]float64{}
	for rep := 0; rep < probeReps; rep++ {
		for _, ph := range phases {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			bodies[ph]()
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			ns[ph] = append(ns[ph], float64(d.Nanoseconds())/float64(n))
			allocs[ph] = append(allocs[ph], float64(m1.Mallocs-m0.Mallocs)/float64(n))
			bytes[ph] = append(bytes[ph], float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		}
	}
	if applyErr != nil {
		return fmt.Errorf("phase probe: apply: %w", applyErr)
	}
	perTransition := 0.0
	for _, ph := range phases {
		m := median(ns[ph])
		tr.add("vmprog."+ph+".ns", m)
		tr.add("vmprog."+ph+".allocs", median(allocs[ph]))
		tr.add("vmprog."+ph+".bytes", median(bytes[ph]))
		if ph != "enum" {
			perTransition += m
		}
	}
	attributed := (float64(tr.transitions)*perTransition + float64(tr.states)*median(ns["enum"])) / 1e9
	tr.add("check.unattributed_s", median(tr.values["check.explore_s"])-attributed)
	tr.span("probe.vmprog", start, time.Now(), map[string]int{"states": n})
	return nil
}

// sampleStates draws probeStates reachable states, with the decision taken
// from each, from random walks of at most probeWalk steps.
func sampleStates(eng *vmprog.Engine, crash vmprog.CrashOpts, rng *rand.Rand) ([]*vmprog.State, []tso.Decision, error) {
	var states []*vmprog.State
	var decs []tso.Decision
	for len(states) < probeStates {
		s := eng.Initial()
		walked := 0
		for ; walked < probeWalk && len(states) < probeStates; walked++ {
			ds := eng.EnabledDecisions(s, crash)
			if len(ds) == 0 {
				break
			}
			d := ds[rng.Intn(len(ds))]
			next := s.Clone()
			if err := eng.Apply(next, d); err != nil {
				break
			}
			states = append(states, s)
			decs = append(decs, d)
			s = next
		}
		if walked == 0 {
			return nil, nil, errors.New("phase probe: the initial state has no enabled decision")
		}
	}
	return states, decs, nil
}

const (
	// tsoProbeRuns is how many seeded random schedules the tso probe
	// replays per lock variant.
	tsoProbeRuns = 2
	// tsoProbeBudget is E8's step budget per random schedule.
	tsoProbeBudget = 500000
)

// tsoProbe replays E8's configuration (two processes, two passages each,
// tso.NewRandom with commit probability 0.2) on the fenced and fenceless
// Peterson locks and reports the goroutine simulator's cost per step,
// simulator construction included. The schedules' seeds come from seed.
func tsoProbe(tr *tracer, seed int64) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	steps := 0
	for _, f := range []mutex.Factory{mutex.NewPeterson, mutex.NewPetersonNoFences} {
		for k := int64(0); k < tsoProbeRuns; k++ {
			sim, err := tso.NewSimulator(tso.Config{N: 2, Passages: 2}, mutex.Build(f))
			if err != nil {
				return err
			}
			res, err := tso.Run(sim, tso.NewRandom(seed*tsoProbeRuns+k, 0.2), tsoProbeBudget)
			sim.Kill()
			if err != nil && !errors.Is(err, tso.ErrStepBudget) {
				return fmt.Errorf("tso probe: %w", err)
			}
			steps += res.Steps
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if steps == 0 {
		return errors.New("tso probe: no steps taken")
	}
	tr.span("probe.tso", start, end, map[string]int{"steps": steps})
	tr.add("tso.step.ns", float64(end.Sub(start).Nanoseconds())/float64(steps))
	tr.add("tso.step.allocs", float64(m1.Mallocs-m0.Mallocs)/float64(steps))
	tr.add("tso.step.bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(steps))
	return nil
}
