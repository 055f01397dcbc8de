package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeRun runs the benchmark on a workload's smoke inputs and returns its
// exit code, its output and its decoded last line.
func smokeRun(t *testing.T, exp *expected, workload, trace string) (int, string, finalLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-smoke", "-seed", "3", "-seconds", "0.3", "-trace", trace, "-workdir", t.TempDir()}, &stdout, &stderr, exp)
	out := strings.TrimRight(stdout.String(), "\n")
	var last finalLine
	if err := json.Unmarshal([]byte(out[strings.LastIndex(out, "\n")+1:]), &last); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, err, out, stderr.String())
	}
	return code, out, last
}

// TestSmokePrintsEveryMetric checks that every workload, untraced and
// traced, passes its output check and prints every metric BENCHMARK.json
// names, with its unit, both as a spread line and in the result object.
func TestSmokePrintsEveryMetric(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for trace, metrics := range map[string][]metric{"0": endToEnd, "1": perLayer} {
			code, out, last := smokeRun(t, exp, w, trace)
			if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v", w, trace, code, last)
			}
			if len(last.Metrics) != len(metrics) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(last.Metrics), len(metrics))
			}
			for _, m := range metrics {
				if got, ok := last.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
				if !strings.Contains(out, "metric "+m.name+" ") {
					t.Errorf("%s trace %s: no spread line for %s", w, trace, m.name)
				}
			}
			if trace == "0" {
				for _, m := range endToEnd {
					if last.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, last.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestWrongPinFails checks that an output differing from its pinned answer
// is reported as a failed run with a non-zero exit code.
func TestWrongPinFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		corrupt  func(*expected)
	}{
		{"recover-tournament3", func(e *expected) {
			a := e.SmokeChecker["recover-tournament3"]
			a.States++
			e.SmokeChecker["recover-tournament3"] = a
		}},
		{"recover-tournament3", func(e *expected) {
			a := e.SmokeChecker["recover-tournament3"]
			a.Verdict = "NOT RECOVERABLE"
			e.SmokeChecker["recover-tournament3"] = a
		}},
		{"paper-suite", func(e *expected) {
			r := e.PaperReports["e5"]
			r.Rows = r.Rows[1:]
			e.PaperReports["e5"] = r
		}},
	} {
		exp, err := loadExpected()
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(exp)
		for _, trace := range []string{"0", "1"} {
			code, _, last := smokeRun(t, exp, tc.workload, trace)
			if code == 0 || last.Correct || last.Failed == 0 {
				t.Errorf("%s trace %s with a wrong pin: exit %d, result correct=%v failed=%d; want a failed run", tc.workload, trace, code, last.Correct, last.Failed)
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		have   []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.have) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark prints %d", len(c.listed), len(c.have))
			continue
		}
		for i, m := range c.have {
			if c.listed[i].Name != m.name || c.listed[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json metric %d is %+v, benchmark prints %s (%s)", i, c.listed[i], m.name, m.unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
