package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary serve as a cold-pass child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if path := os.Getenv(coldPassEnv); path != "" {
		os.Exit(coldPassMain(path, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var allWorkloads = []string{"corpus", "summary", "service"}

func shortConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload,
		seed:     7,
		window:   300 * time.Millisecond,
		trace:    trace,
		workdir:  t.TempDir(),
		short:    true,
		log:      io.Discard,
	}
}

// runShort runs one workload in short mode and fails the test unless it
// ran, passed every check and printed exactly its metrics.
func runShort(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	out, err := execute(shortConfig(t, workload, trace))
	if err != nil {
		t.Fatalf("%s (trace %t): %v", workload, trace, err)
	}
	if !out.res.Correct || out.res.Failed != 0 {
		t.Fatalf("%s (trace %t): correct=%t failed=%d/%d, checks: %v",
			workload, trace, out.res.Correct, out.res.Failed, out.res.Attempted, out.checks)
	}
	return out
}

// TestShortRunsPassAndMetricContractBites runs every workload plain, and
// the traced run (which runs every workload's ledger) once, and shows the
// metric contract rejects the result once a metric is missing or has no
// unit.
func TestShortRunsPassAndMetricContractBites(t *testing.T) {
	runs := []struct {
		workload string
		trace    bool
	}{{"corpus", false}, {"summary", false}, {"service", false}, {"summary", true}}
	for _, r := range runs {
		out := runShort(t, r.workload, r.trace)
		for name, m := range out.res.Metrics {
			missing := copyMetrics(out.res.Metrics)
			delete(missing, name)
			if checkMetrics(r.trace, missing) == nil {
				t.Errorf("%s (trace %t): result without %s passed the metric contract", r.workload, r.trace, name)
			}
			unitless := copyMetrics(out.res.Metrics)
			unitless[name] = metric{Value: m.Value}
			if checkMetrics(r.trace, unitless) == nil {
				t.Errorf("%s (trace %t): %s without a unit passed the metric contract", r.workload, r.trace, name)
			}
		}
	}
}

func copyMetrics(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestPerturbedReferenceFails shows every workload's correctness checks
// bite: with one reference deliberately wrong, the run is not correct.
func TestPerturbedReferenceFails(t *testing.T) {
	for _, w := range allWorkloads {
		cfg := shortConfig(t, w, false)
		cfg.perturb = true
		out, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if out.res.Correct || len(out.checks) == 0 {
			t.Errorf("%s: a perturbed reference still passed", w)
		}
	}
}

// TestFactsRepeatForASeed runs each workload twice with one seed: the
// deterministic facts (counts, sizes, DTD digests) must agree exactly.
func TestFactsRepeatForASeed(t *testing.T) {
	for _, w := range allWorkloads {
		a := runShort(t, w, false).facts
		b := runShort(t, w, false).facts
		for _, timing := range []string{"idtd_ops", "crx_ops", "cpu_busy_pct"} {
			delete(a, timing)
			delete(b, timing)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: facts differ between runs with one seed:\n%v\n%v", w, a, b)
		}
	}
}

// TestBenchmarkJSONListsTheRegisteredMetrics keeps BENCHMARK.json and the
// registry in step: same names, same units.
func TestBenchmarkJSONListsTheRegisteredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"corpus", "service", "summary"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	listed := func(entries []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range entries {
			m[e.Name] = e.Unit
		}
		return m
	}
	registry := func(trace bool) map[string]string {
		m := map[string]string{}
		for _, s := range registered(trace) {
			m[s.name] = s.unit
		}
		return m
	}
	if got, want := listed(spec.EndToEnd), registry(false); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, registry %v", got, want)
	}
	if got, want := listed(spec.PerLayer), registry(true); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, registry %v", got, want)
	}
}

// TestMetricNamesAreUnique: a traced run merges every workload's ledger
// into one result, so no two ledgers may share a metric name.
func TestMetricNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, trace := range []bool{false, true} {
		for _, s := range registered(trace) {
			if seen[s.name] {
				t.Errorf("metric %s is registered twice", s.name)
			}
			seen[s.name] = true
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "corpus", "--trace", "2"},
		{"--workload", "corpus", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
