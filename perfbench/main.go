// Command perfbench is the repository's benchmark. It drives three seeded
// workloads against the library and an in-process dtdserved tenant:
//
//	corpus   batch corpus -> DTD, as dtdinfer runs it (ingestion-bound)
//	summary  corpus summary -> DTD, as dtdinfer -load-corpus and dtdmerge
//	         run it (engine-bound; no XML is parsed)
//	service  an open-loop validate/ingest mix against one dtdserved tenant
//
// A plain run (--trace 0) prints the end-to-end metrics, measured on the
// named workload's ops; every workload prints the same set. A traced run
// (--trace 1) runs every workload's traced ledger, which times each layer
// from outside by wrapping the calls into that layer's public functions,
// and prints every per-layer metric. The last line of standard output is
// the result object; see README.md for the metric -> layer map and why
// each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	if path := os.Getenv(coldPassEnv); path != "" {
		os.Exit(coldPassMain(path, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the timed part measures
	trace    bool
	workdir  string // scratch space for temporary inputs and traces
	// short shrinks the inputs for the self-tests; perturb corrupts one
	// correctness reference so the tests can show the checks bite.
	short   bool
	perturb bool
	log     io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the result plus the failed
// correctness checks (their text goes to standard error) and the
// deterministic facts of the run, printed on a line of their own so two
// runs with one seed can be compared.
type outcome struct {
	res    result
	checks []string
	facts  map[string]any
}

func newOutcome() *outcome {
	return &outcome{res: result{Correct: true, Metrics: map[string]metric{}}, facts: map[string]any{}}
}

func (o *outcome) set(name string, value float64) {
	o.res.Metrics[name] = metric{Value: value, Unit: unitOf(name)}
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
	o.res.Correct = false
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*config) (*outcome, error){
	"corpus":  runCorpus,
	"summary": runSummary,
	"service": runService,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "corpus, summary or service")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs every workload's traced ledger and prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary inputs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload corpus|summary|service, --trace 0|1 and --seconds > 0")
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workdir:  *workdir,
		log:      stderr,
	}
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return emit(cfg, out, stdout, stderr)
}

// execute runs the configured workload — or, traced, every workload's
// ledger — and checks that it produced exactly the registered metrics.
func execute(cfg *config) (*outcome, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	var out *outcome
	var err error
	if cfg.trace {
		out, err = traceAll(cfg)
	} else {
		out, err = workloads[cfg.workload](cfg)
		if err == nil {
			names := opNames[cfg.workload]
			out.facts["op"], out.facts["alt_op"] = names[0], names[1]
		}
	}
	if err != nil {
		return nil, err
	}
	if err := checkMetrics(cfg.trace, out.res.Metrics); err != nil {
		return nil, err
	}
	if out.res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return out, nil
}

// traceAll runs the traced ledger of every workload, each for an equal
// share of the window, and merges their outcomes: the per-layer metrics
// form one ledger whichever workload the run is named after. Checks and
// facts keep the name of the workload that produced them.
func traceAll(cfg *config) (*outcome, error) {
	all := newOutcome()
	for _, w := range workloadOrder {
		sub := *cfg
		sub.workload = w
		sub.window = cfg.window / time.Duration(len(workloadOrder))
		out, err := workloads[w](&sub)
		if err != nil {
			return nil, fmt.Errorf("%s ledger: %w", w, err)
		}
		all.res.Correct = all.res.Correct && out.res.Correct
		all.res.Attempted += out.res.Attempted
		all.res.Failed += out.res.Failed
		for name, m := range out.res.Metrics {
			all.res.Metrics[name] = m
		}
		for _, c := range out.checks {
			all.checks = append(all.checks, w+": "+c)
		}
		all.facts[w] = out.facts
	}
	return all, nil
}

// emit prints the facts line and the result line. A failed correctness
// check fails the run: the result still prints, but the exit code is 1.
func emit(cfg *config, out *outcome, stdout, stderr io.Writer) int {
	for _, c := range out.checks {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", cfg.workload, c)
	}
	out.facts["workload"] = cfg.workload
	out.facts["seed"] = cfg.seed
	out.facts["trace"] = cfg.trace
	facts, err := json.Marshal(out.facts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: facts: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "run %s\n%s\n", facts, line)
	if !out.res.Correct {
		return 1
	}
	return 0
}

// checkMetrics enforces the metric contract: a run reports exactly the
// metrics registered for its mode, each with its unit and a finite value.
func checkMetrics(trace bool, got map[string]metric) error {
	want := registered(trace)
	var problems []string
	for _, spec := range want {
		m, ok := got[spec.name]
		switch {
		case !ok:
			problems = append(problems, spec.name+" is missing")
		case m.Unit == "" || m.Unit != spec.unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", spec.name, m.Unit, spec.unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", spec.name, m.Value))
		}
	}
	known := map[string]bool{}
	for _, spec := range want {
		known[spec.name] = true
	}
	for name := range got {
		if !known[name] {
			problems = append(problems, name+" is not registered for this mode")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric contract: %v", problems)
	}
	return nil
}
