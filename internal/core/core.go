// Package core ties the inference algorithms of the paper into one
// engine: given positive example strings (or whole XML documents), it
// derives concise deterministic regular expressions — SOREs via iDTD,
// CHAREs via CRX — or runs one of the baselines (XTRACT, the Trang-like
// pipeline, classical state elimination) for comparison, and assembles
// complete DTDs or XML Schemas. Every engine is a registered Learner
// consuming the counted, interned sample representation; names, parsing
// and CLI usage text all derive from the registry.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"dtdinfer/internal/crx"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/numpred"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/stateelim"
	"dtdinfer/internal/tranglike"
	"dtdinfer/internal/xsd"
	"dtdinfer/internal/xtract"
)

// Algorithm selects the inference engine for content models.
type Algorithm string

const (
	// IDTD is the paper's SORE inference: 2T-INF + rewrite + repair rules.
	IDTD Algorithm = "idtd"
	// CRX is the paper's CHARE inference, strongest on sparse data.
	CRX Algorithm = "crx"
	// RewriteOnly is rewrite without repair rules: fails on
	// non-representative samples (used to reproduce Figure 4).
	RewriteOnly Algorithm = "rewrite"
	// XTRACT is the reconstruction of the Garofalakis et al. system.
	XTRACT Algorithm = "xtract"
	// TrangLike is the reconstruction of Trang's strategy.
	TrangLike Algorithm = "trang"
	// StateElim is classical state elimination over the 2T-INF automaton.
	StateElim Algorithm = "stateelim"
)

// Budget caps the resources one element's inference may consume. The zero
// value applies no caps. Budgets are enforced cooperatively: the deadline
// becomes a per-element context timeout, and the structural caps are
// carried in the context and checked by every engine at its blow-up
// points (automaton size before the expensive phase, expression size after
// it).
type Budget struct {
	// Deadline is the wall-clock cap per element (0 = none).
	Deadline time.Duration
	// MaxSOAStates caps the automaton alphabet size an engine may process
	// (0 = none). Engines whose cost is superlinear in states — state
	// elimination above all — fail fast instead of blowing up.
	MaxSOAStates int
	// MaxExprSize caps the token count of an accepted expression (0 =
	// none), rejecting page-filling outputs a human would never read.
	MaxExprSize int
}

// DegradeMode selects what happens when an element's configured engine
// fails, exceeds its budget, or panics.
type DegradeMode int

const (
	// DegradeFail propagates the failure, aborting the whole inference —
	// the historical behaviour and the zero value, so existing library
	// callers are unaffected.
	DegradeFail DegradeMode = iota
	// DegradeLadder walks the degradation ladder instead: the configured
	// engine, then CRX (cheap, linear, cannot blow up), then the universal
	// content model (a1|...|an)* over the element's observed children. The
	// accepted rung is recorded in the element's ElementOutcome.
	DegradeLadder
)

func (m DegradeMode) String() string {
	switch m {
	case DegradeFail:
		return "fail"
	case DegradeLadder:
		return "ladder"
	}
	return fmt.Sprintf("DegradeMode(%d)", int(m))
}

// Options tune the engines.
type Options struct {
	// IDTD options (fuzziness k, noise threshold, ...).
	IDTD idtd.Options
	// XTRACT options (string cap, block length).
	XTRACT xtract.Options
	// NumericPredicates enables the Section 9 post-processing that refines
	// r+ factors to r{m}/r{m,} bounds from the sample.
	NumericPredicates bool
	// Parallelism is the number of worker goroutines used for document
	// ingestion (XML decoding). 0 selects GOMAXPROCS; 1 runs no pipeline:
	// the calling goroutine stages the whole batch as one shard, as each
	// pipeline worker stages its shards. Results are byte-identical at
	// every setting; see dtd.AddDocsParallel.
	Parallelism int
	// Budget caps each element's inference (zero value = uncapped).
	Budget Budget
	// Degrade selects the reaction to a failing or over-budget engine.
	Degrade DegradeMode
}

// Learner is one registered inference engine: the name the tools address
// it by, a one-line description for usage text, and the inference function
// over the counted, interned sample representation.
type Learner struct {
	// Algo is the registry key, as used by ParseAlgorithm and the CLIs.
	Algo Algorithm
	// Doc is a one-line description shown in command-line usage.
	Doc string
	// Infer derives a content-model expression from a counted sample. The
	// context carries cancellation and the resource budget; engines check
	// it cooperatively at their blow-up points.
	Infer func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error)
}

// registry holds the learners in registration order — the order names
// appear in usage text and error messages.
var registry []Learner

// byAlgo indexes the registry for ParseAlgorithm and dispatch.
var byAlgo = map[Algorithm]*Learner{}

// Register adds a learner to the registry. It panics on a duplicate or
// empty name; registration happens at init time, so a collision is a
// programming error, not a runtime condition.
func Register(l Learner) {
	if l.Algo == "" || l.Infer == nil {
		panic("core: Register requires a name and an Infer func")
	}
	if _, dup := byAlgo[l.Algo]; dup {
		panic(fmt.Sprintf("core: duplicate learner %q", l.Algo))
	}
	registry = append(registry, l)
	byAlgo[l.Algo] = &registry[len(registry)-1]
}

// Learners returns the registered learners in registration order.
func Learners() []Learner {
	out := make([]Learner, len(registry))
	copy(out, registry)
	return out
}

// AlgorithmNames returns the registered algorithm names in registration
// order — the single source the CLIs derive their -algo usage from.
func AlgorithmNames() []string {
	names := make([]string, len(registry))
	for i, l := range registry {
		names[i] = string(l.Algo)
	}
	return names
}

// AlgorithmList renders the registered names as "a, b, ... or z" for
// error and usage text.
func AlgorithmList() string {
	names := AlgorithmNames()
	if len(names) == 0 {
		return ""
	}
	if len(names) == 1 {
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// ParseAlgorithm converts a name (as used by the command-line tools) into
// an Algorithm. The set of accepted names — and the error text listing
// them — comes from the learner registry.
func ParseAlgorithm(name string) (Algorithm, error) {
	if _, ok := byAlgo[Algorithm(name)]; ok {
		return Algorithm(name), nil
	}
	return "", fmt.Errorf("core: unknown algorithm %q (want %s)", name, AlgorithmList())
}

func init() {
	Register(Learner{
		Algo: IDTD,
		Doc:  "SORE inference: 2T-INF + rewrite + repair rules (the paper's iDTD)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			res, err := idtd.InferSampleContext(ctx, s, &opts.IDTD)
			if err != nil {
				return nil, err
			}
			return res.Expr, nil
		},
	})
	Register(Learner{
		Algo: CRX,
		Doc:  "CHARE inference, strongest on sparse data (the paper's CRX)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			res, err := crx.InferSampleContext(ctx, s)
			if err != nil {
				return nil, err
			}
			return res.Expr, nil
		},
	})
	Register(Learner{
		Algo: RewriteOnly,
		Doc:  "rewrite without repair rules; fails on non-representative samples (Figure 4)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return gfa.InferSampleContext(ctx, s)
		},
	})
	Register(Learner{
		Algo: XTRACT,
		Doc:  "reconstruction of the Garofalakis et al. XTRACT system",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return xtract.InferSampleContext(ctx, s, &opts.XTRACT)
		},
	})
	Register(Learner{
		Algo: TrangLike,
		Doc:  "reconstruction of Trang's inference strategy",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return tranglike.InferSampleContext(ctx, s)
		},
	})
	Register(Learner{
		Algo: StateElim,
		Doc:  "classical state elimination over the 2T-INF automaton (negative baseline)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return stateelim.InferSampleContext(ctx, s)
		},
	})
}

// InferSampleExpr derives a content-model expression from a counted,
// interned sample with the chosen algorithm. This is the engine hot path:
// the registered learner consumes interned IDs directly, and the optional
// numeric-predicate refinement scans unique sequences only.
func InferSampleExpr(s *sample.Set, algo Algorithm, opts *Options) (*regex.Expr, error) {
	return InferSampleExprContext(context.Background(), s, algo, opts)
}

// InferSampleExprContext is InferSampleExpr under a context. It runs the
// single chosen engine — no degradation ladder — so experiment harnesses
// measuring one algorithm observe that algorithm's own failures.
func InferSampleExprContext(ctx context.Context, s *sample.Set, algo Algorithm, opts *Options) (*regex.Expr, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	l, ok := byAlgo[algo]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (want %s)", algo, AlgorithmList())
	}
	e, err := l.Infer(ctx, s, &o)
	if err != nil {
		return nil, err
	}
	if o.NumericPredicates {
		e = numpred.RefineSample(e, s)
	}
	return e, nil
}

// InferExpr derives a content-model expression from positive example
// strings with the chosen algorithm. The strings are folded into the
// counted sample representation first, so duplicates cost a count bump
// rather than repeated work in the engine.
func InferExpr(strs [][]string, algo Algorithm, opts *Options) (*regex.Expr, error) {
	return InferSampleExpr(sample.FromStrings(strs), algo, opts)
}

// ingestAll is the single ingestion pipeline behind every document-level
// entry point: hardened, fault-isolated, sharded across workers according
// to opts.Parallelism, and cancellable through the context. The report is
// never nil.
func ingestAll(ctx context.Context, docs []io.Reader, opts *Options,
	ingest *dtd.IngestOptions, policy dtd.ErrorPolicy) (*dtd.Extraction, *dtd.IngestReport, error) {
	workers := 0
	if opts != nil {
		workers = opts.Parallelism
	}
	x := dtd.NewExtraction()
	report, err := x.AddDocumentsParallelContext(ctx, docs, workers, ingest, policy)
	if err != nil {
		return nil, report, fmt.Errorf("core: %w", err)
	}
	return x, report, nil
}

// InferDTD extracts element sequences from the given XML documents and
// infers a complete DTD. Ingestion runs through the same sharded,
// fault-isolated pipeline as InferDTDReport (uncapped, fail-fast).
func InferDTD(docs []io.Reader, algo Algorithm, opts *Options) (*dtd.DTD, error) {
	return InferDTDContext(context.Background(), docs, algo, opts)
}

// InferDTDContext is InferDTD under a context: cancellation propagates
// into the decode loops and every engine's hot loop, and opts.Budget /
// opts.Degrade govern per-element budgets and the degradation ladder.
func InferDTDContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options) (*dtd.DTD, error) {
	x, _, err := ingestAll(ctx, docs, opts, nil, dtd.FailFast)
	if err != nil {
		return nil, err
	}
	d, _, err := x.InferDTDElements(ctx, ElementInferrer(algo, opts))
	return d, err
}

// InferDTDReport is InferDTD with hardened ingestion: documents are
// ingested under the resource caps of ingest (nil = unlimited) with
// per-document fault isolation under the chosen policy, and the returned
// IngestReport and InferStats carry the ingestion counters, per-document
// errors, per-element inference timings and degradation outcomes. Under
// SkipAndRecord a malformed document is recorded and skipped rather than
// aborting the batch. The report is non-nil even on error; the stats are
// non-nil whenever inference ran.
func InferDTDReport(docs []io.Reader, algo Algorithm, opts *Options,
	ingest *dtd.IngestOptions, policy dtd.ErrorPolicy) (*dtd.DTD, *dtd.IngestReport, *dtd.InferStats, error) {
	return InferDTDReportContext(context.Background(), docs, algo, opts, ingest, policy)
}

// InferDTDReportContext is InferDTDReport under a context.
func InferDTDReportContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options,
	ingest *dtd.IngestOptions, policy dtd.ErrorPolicy) (*dtd.DTD, *dtd.IngestReport, *dtd.InferStats, error) {
	x, report, err := ingestAll(ctx, docs, opts, ingest, policy)
	if err != nil {
		return nil, report, nil, err
	}
	d, stats, err := x.InferDTDElements(ctx, ElementInferrer(algo, opts))
	if err != nil {
		return nil, report, stats, err
	}
	return d, report, stats, nil
}

// InferDTDFromExtraction infers a DTD from already-extracted sequences.
func InferDTDFromExtraction(x *dtd.Extraction, algo Algorithm, opts *Options) (*dtd.DTD, error) {
	d, _, err := InferDTDFromExtractionContext(context.Background(), x, algo, opts)
	return d, err
}

// InferDTDFromExtractionStats additionally reports per-element inference
// timings and degradation outcomes from InferDTD's worker pool.
func InferDTDFromExtractionStats(x *dtd.Extraction, algo Algorithm, opts *Options) (*dtd.DTD, *dtd.InferStats, error) {
	return InferDTDFromExtractionContext(context.Background(), x, algo, opts)
}

// InferDTDFromExtractionContext is InferDTDFromExtractionStats under a
// context — the entry point the CLI and incremental workflows run on.
// Inference is memoized per element on the extraction: repeated calls
// with the same algorithm and options replay cached content models for
// every element whose sample has not changed since the previous call
// (validated by content fingerprint, so the result is byte-identical to
// a cold run), and the returned InferStats carries the hit/miss/
// recompute counters. A call with different algorithm or options keys
// its own cache entries and never aliases another configuration's.
func InferDTDFromExtractionContext(ctx context.Context, x *dtd.Extraction, algo Algorithm, opts *Options) (*dtd.DTD, *dtd.InferStats, error) {
	return x.InferDTDElementsCached(ctx, cacheConfig(algo, opts), ElementInferrer(algo, opts))
}

// InferXSD infers a DTD from the documents and renders it as an XML Schema
// with datatype detection over the sampled text values (Section 9).
func InferXSD(docs []io.Reader, algo Algorithm, opts *Options) (string, error) {
	return InferXSDContext(context.Background(), docs, algo, opts)
}

// InferXSDContext is InferXSD under a context, with the same cancellation
// and budget semantics as InferDTDContext.
func InferXSDContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options) (string, error) {
	x, _, err := ingestAll(ctx, docs, opts, nil, dtd.FailFast)
	if err != nil {
		return "", err
	}
	d, _, err := x.InferDTDElements(ctx, ElementInferrer(algo, opts))
	if err != nil {
		return "", err
	}
	return xsd.Generate(d, x.TextSamples), nil
}
