package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/check"
	"priceadaptive/internal/core"
	"priceadaptive/internal/jobs"
	"priceadaptive/internal/vmprog"
)

// workloadNames are the workloads, in the order BENCHMARK.json lists them.
var workloadNames = []string{"recover-tournament3", "paper-suite"}

// workload is one benchmark input: a factory for fresh operations plus the
// layer probes a traced run adds after its operations.
type workload struct {
	newOp func() op
	probe func(tr *tracer, seed int64) error
}

// op is one run of a workload. setup is the work before the timed call
// (setup_s); call makes the timed call and checks its output, returning an
// error wrapping errMismatch when the output differs from the pinned
// answer; close releases what setup acquired. A nil tracer means an
// untraced operation.
type op interface {
	setup(tr *tracer) error
	call(ctx context.Context, tr *tracer) error
	close()
}

// checkerSpec is a model-checking workload: program, size, and the crash
// budget check.VerifyRecoverable explores.
type checkerSpec struct {
	prog  string
	n     int
	crash vmprog.CrashOpts
}

// checkerSpecs maps each checker workload to its full and smoke inputs.
var checkerSpecs = map[string][2]checkerSpec{
	"recover-tournament3": {
		{prog: "tournament", n: 3, crash: vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}},
		{prog: "tournament", n: 2, crash: vmprog.CrashOpts{MaxCrashes: 1, MaxPerProc: 1}},
	},
}

// paperIDs are the paper-suite experiments, full and smoke.
var paperIDs = [2][]string{core.ExperimentIDs(), {"e4", "e5"}}

//go:embed expected.json
var expectedJSON []byte

// expected holds the pinned answers every output is checked against.
type expected struct {
	// Checker and SmokeChecker pin the checker workloads' verdicts and
	// counts, keyed by workload name, for the full and smoke inputs.
	Checker      map[string]checkerAnswer `json:"checker"`
	SmokeChecker map[string]checkerAnswer `json:"smoke_checker"`
	// PaperReports pins each experiment's report, keyed by registry id,
	// with its timing fields (started_at, duration_ns) dropped.
	PaperReports map[string]paperReport `json:"paper_reports"`
}

// checkerAnswer is the part of a checker result that must repeat exactly.
type checkerAnswer struct {
	Verdict     string `json:"verdict"`
	Complete    bool   `json:"complete"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
}

// paperReport is a core.Report without its timing fields.
type paperReport struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// newWorkload builds the named workload from cfg and its pinned answers.
func newWorkload(cfg config, exp *expected) (workload, error) {
	size := 0
	pins := exp.Checker
	if cfg.smoke {
		size = 1
		pins = exp.SmokeChecker
	}
	if specs, ok := checkerSpecs[cfg.workload]; ok {
		spec := specs[size]
		want, ok := pins[cfg.workload]
		if !ok {
			return workload{}, fmt.Errorf("no pinned answer for %s (smoke %v)", cfg.workload, cfg.smoke)
		}
		return workload{
			newOp: func() op { return &checkerOp{spec: spec, want: want} },
			probe: func(tr *tracer, seed int64) error { return phaseProbe(tr, spec, seed) },
		}, nil
	}
	if cfg.workload == "paper-suite" {
		ids := paperIDs[size]
		for _, id := range ids {
			if _, ok := exp.PaperReports[id]; !ok {
				return workload{}, fmt.Errorf("no pinned report for %s", id)
			}
		}
		return workload{
			newOp: func() op { return &paperOp{ids: ids, want: exp.PaperReports, workdir: cfg.workdir} },
			probe: func(tr *tracer, seed int64) error { return tsoProbe(tr, seed) },
		}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// checkerOp is one checker run: vmprog.Lookup and por.Facts as set-up, then
// check.VerifyRecoverable with one frontier-engine worker and full
// reduction.
type checkerOp struct {
	spec  checkerSpec
	want  checkerAnswer
	prog  *vmprog.Program
	facts *vmprog.PruneFacts
}

func (o *checkerOp) setup(tr *tracer) error {
	t0 := time.Now()
	p, err := vmprog.Lookup(o.spec.prog, o.spec.n)
	if err != nil {
		return err
	}
	t1 := time.Now()
	f, err := por.Facts(p, o.spec.n)
	if err != nil {
		return err
	}
	t2 := time.Now()
	o.prog, o.facts = p, f
	tr.span("vmprog.Lookup", t0, t1, nil)
	tr.span("por.Facts", t1, t2, nil)
	tr.add("por.facts_s", t2.Sub(t1).Seconds())
	return nil
}

func (o *checkerOp) call(ctx context.Context, tr *tracer) error {
	opts := []check.Option{check.WithWorkers(1), check.WithReduce(check.ReduceFull), check.WithFacts(o.facts)}
	cp := tr.startCall()
	v, err := check.VerifyRecoverable(ctx, o.prog, o.spec.n, append(opts, check.WithCrashes(o.spec.crash))...)
	if err != nil {
		return err
	}
	got := checkerAnswer{Verdict: "NOT RECOVERABLE", Complete: v.Complete, States: v.States, Transitions: v.Transitions}
	if v.Recoverable {
		got.Verdict = "RECOVERABLE"
	}
	tr.endCall(cp, "check.VerifyRecoverable", got.States, got.Transitions)
	if got != o.want {
		return fmt.Errorf("%w: got %+v, want %+v", errMismatch, got, o.want)
	}
	return nil
}

func (o *checkerOp) close() {}

// paperOp is one paper-suite run the way cmd/priceadaptive does it: a fresh
// job store and a one-worker queue as set-up, then every experiment
// submitted up front and collected in order.
type paperOp struct {
	ids     []string
	want    map[string]paperReport
	workdir string
	dir     string
	q       *jobs.Queue
}

func (o *paperOp) setup(tr *tracer) error {
	t0 := time.Now()
	dir, err := os.MkdirTemp(o.workdir, "store-*")
	if err != nil {
		return err
	}
	o.dir = dir
	store, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	q := jobs.NewQueue(store, jobs.WithWorkers(1))
	jobs.RegisterBuiltins(q)
	if _, err := q.Recover(); err != nil {
		return err
	}
	q.Start()
	o.q = q
	t1 := time.Now()
	tr.span("jobs.open", t0, t1, nil)
	tr.add("jobs.store_open_s", t1.Sub(t0).Seconds())
	return nil
}

// call submits every experiment, then waits for each in order and checks
// its report. A traced call then records each job's turn: from its
// submission, or from the end of the job before it if later (one worker runs
// them in submission order), to its end. It takes both ends from the job's
// own status rather than from when Wait returns, because with one P the
// waiting goroutine may see a short job end only after the next few have
// run. jobs.overhead_s sums each turn minus the report's own duration_ns.
func (o *paperOp) call(ctx context.Context, tr *tracer) error {
	jobIDs := make([]string, len(o.ids))
	for i, id := range o.ids {
		params, err := json.Marshal(jobs.ExperimentParams{ID: id})
		if err != nil {
			return err
		}
		st, _, err := o.q.Submit(jobs.Spec{Kind: jobs.KindExperiment, Params: params})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		jobIDs[i] = st.ID
	}
	statuses := make([]jobs.Status, len(o.ids))
	durations := make([]time.Duration, len(o.ids))
	for i, id := range o.ids {
		st, err := o.q.Wait(ctx, jobIDs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if st.State != jobs.StateDone {
			return fmt.Errorf("%s: job %s: %s", id, st.State, st.Error)
		}
		raw, err := o.q.Result(jobIDs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		var rep core.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("%s: decode report: %w", id, err)
		}
		got := paperReport{ID: rep.ID, Title: rep.Title, Header: rep.Header, Rows: rep.Rows, Notes: rep.Notes}
		if want := o.want[id]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%w: report %s differs", errMismatch, id)
		}
		statuses[i], durations[i] = st, rep.Duration
	}
	if tr == nil {
		return nil
	}
	var prevEnd time.Time
	overhead := 0.0
	for i, st := range statuses {
		begin := st.CreatedAt
		if prevEnd.After(begin) {
			begin = prevEnd
		}
		prevEnd = st.FinishedAt
		turn := st.FinishedAt.Sub(begin).Seconds()
		tr.span("jobs."+o.ids[i], begin, st.FinishedAt, map[string]int{"duration_us": int(durations[i].Microseconds())})
		tr.add("jobs."+o.ids[i]+"_s", turn)
		overhead += turn - durations[i].Seconds()
	}
	tr.add("jobs.overhead_s", overhead)
	return nil
}

func (o *paperOp) close() {
	if o.q != nil {
		o.q.Close()
	}
	if o.dir != "" {
		os.RemoveAll(o.dir)
	}
}
