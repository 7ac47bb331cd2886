// Command dtdinfer infers a concise DTD (or XML Schema) from XML documents.
//
// Usage:
//
//	dtdinfer [-algo idtd|crx|xtract|trang|stateelim] [-format dtd|xsd]
//	         [-numeric] [-noise N] [-skip-malformed] [-stats] [-j N]
//	         [-max-depth N] [-max-tokens N] [-max-names N] [-max-bytes N]
//	         [-timeout D] [-max-soa-states N] [-max-expr-size N]
//	         [-degrade ladder|fail]
//	         [-save-corpus FILE] [-load-corpus FILE] [-no-infer]
//	         file.xml [file2.xml ...]
//
// With no files, one document is read from standard input. The default
// algorithm is iDTD; use -algo crx when only a few documents are available.
//
// Corpus summaries: -save-corpus writes the ingested corpus summary —
// counted samples, statistics, and (after inference) the memoized content
// models — to FILE; -load-corpus starts from such a summary instead of an
// empty corpus, ingesting any named documents on top (stdin is not read),
// so repeated runs over a growing corpus re-parse only the new documents
// and replay cached models for unchanged elements. -no-infer skips
// inference, for summarize-only shards; cmd/dtdmerge merges shard
// summaries and infers once.
//
// Ingestion is failure-atomic per document. By default a malformed document
// aborts the run (fail-fast); with -skip-malformed it is recorded, skipped,
// and inference proceeds over the documents that parsed. The -max-* flags
// cap decoding resources (0 = unlimited; -hardened applies production-safe
// defaults), rejecting XML bombs before they exhaust memory. -stats prints
// the ingestion report and per-element inference timings to standard error.
// -j shards document decoding across N worker goroutines (0 = GOMAXPROCS);
// the result is byte-identical at every worker count.
//
// Robustness: -timeout caps each element's inference wall clock,
// -max-soa-states and -max-expr-size cap the automaton and output sizes,
// and -degrade selects what happens when an element's engine fails, runs
// over budget, or panics. The default ladder falls back to CRX and then to
// the universal content model (a1|...|an)* so the run always produces a
// schema (degradations are listed by -stats); -degrade=fail aborts instead.
// An interrupt (Ctrl-C) cancels decoding and inference promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"dtdinfer/internal/contextual"
	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/xsd"
)

func main() {
	algoName := flag.String("algo", "idtd", "inference algorithm: "+core.AlgorithmList())
	format := flag.String("format", "dtd", "output format: dtd or xsd")
	numeric := flag.Bool("numeric", false, "refine repetitions to {m,n} bounds from the data (Section 9)")
	noise := flag.Int("noise", 0, "iDTD noise threshold: drop edges supported by at most N strings when stuck")
	contextK := flag.Int("context", 0, "infer a contextual schema with k ancestor names of typing context (0 = plain DTD)")
	skipMalformed := flag.Bool("skip-malformed", false, "skip and record documents that fail to parse instead of aborting")
	stats := flag.Bool("stats", false, "print the ingestion report and per-element inference timings to stderr")
	hardened := flag.Bool("hardened", false, "apply production-safe decoding caps (overridden by explicit -max-* flags)")
	parallel := flag.Int("j", 0, "ingestion worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	maxDepth := flag.Int("max-depth", 0, "cap element nesting depth per document (0 = unlimited)")
	maxTokens := flag.Int64("max-tokens", 0, "cap XML tokens per document (0 = unlimited)")
	maxNames := flag.Int("max-names", 0, "cap distinct element names per document (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "cap input bytes per document (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "cap each element's inference wall clock (0 = unlimited)")
	maxSOAStates := flag.Int("max-soa-states", 0, "cap the automaton states an engine may process per element (0 = unlimited)")
	maxExprSize := flag.Int("max-expr-size", 0, "cap the token count of an inferred content model (0 = unlimited)")
	degrade := flag.String("degrade", "ladder", "on engine failure or exceeded budget: ladder (fall back to crx, then (a1|...|an)*) or fail")
	saveCorpus := flag.String("save-corpus", "", "write the corpus summary (samples, statistics, cached models) to FILE after ingestion")
	loadCorpus := flag.String("load-corpus", "", "start from the corpus summary in FILE instead of an empty corpus; named documents are ingested on top")
	noInfer := flag.Bool("no-infer", false, "skip inference and print nothing; use with -save-corpus to only summarize")
	flag.Parse()

	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	opts := &core.Options{NumericPredicates: *numeric, Parallelism: *parallel}
	opts.IDTD.NoiseThreshold = *noise
	opts.Budget = core.Budget{
		Deadline:     *timeout,
		MaxSOAStates: *maxSOAStates,
		MaxExprSize:  *maxExprSize,
	}
	switch *degrade {
	case "ladder":
		opts.Degrade = core.DegradeLadder
	case "fail":
		opts.Degrade = core.DegradeFail
	default:
		fatal(fmt.Errorf("unknown -degrade mode %q (want ladder or fail)", *degrade))
	}

	ingest := &dtd.IngestOptions{}
	if *hardened {
		ingest = dtd.DefaultIngestOptions()
	}
	if *maxDepth > 0 {
		ingest.MaxDepth = *maxDepth
	}
	if *maxTokens > 0 {
		ingest.MaxTokens = *maxTokens
	}
	if *maxNames > 0 {
		ingest.MaxNames = *maxNames
	}
	if *maxBytes > 0 {
		ingest.MaxBytes = *maxBytes
	}
	policy := dtd.FailFast
	if *skipMalformed {
		policy = dtd.SkipAndRecord
	}

	if *contextK > 0 {
		if *loadCorpus != "" || *saveCorpus != "" {
			fatal(fmt.Errorf("-load-corpus/-save-corpus apply to DTD corpora; they cannot be combined with -context"))
		}
		runContextual(*contextK, algo, opts, *format, ingest, policy, *stats)
		return
	}

	// An interrupt cancels the context; decoding workers and engine hot
	// loops observe it cooperatively and the run exits promptly with the
	// corpus state discarded rather than torn.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -load-corpus, the named files (possibly none) are ingested on
	// top of the loaded summary; stdin is only the implicit input when
	// starting from an empty corpus.
	var docs []dtd.Doc
	x := dtd.NewExtraction()
	if *loadCorpus != "" {
		if x, err = core.LoadCorpus(*loadCorpus); err != nil {
			fatal(err)
		}
		docs = openFileDocs()
	} else {
		docs = openDocs()
	}
	defer closeDocs(docs)
	report, err := x.AddDocsParallelContext(ctx, docs, opts.Parallelism, ingest, policy)
	if err != nil {
		if *stats {
			fmt.Fprintln(os.Stderr, report)
		}
		fatal(err)
	}
	save := func() {
		if *saveCorpus != "" {
			if err := core.SaveCorpus(x, *saveCorpus); err != nil {
				fatal(err)
			}
		}
	}
	if *noInfer {
		save()
		if *stats {
			fmt.Fprintln(os.Stderr, report)
		}
		return
	}
	d, inferStats, err := core.InferDTDFromExtractionContext(ctx, x, algo, opts)
	// Saved after inference, so the summary carries the memoized content
	// models and a later -load-corpus run starts warm.
	save()
	if *stats {
		fmt.Fprintln(os.Stderr, report)
		if inferStats != nil {
			fmt.Fprintln(os.Stderr, inferStats)
		}
	}
	if err != nil {
		fatal(err)
	}
	switch *format {
	case "dtd":
		fmt.Println(d)
	case "xsd":
		fmt.Print(xsd.Generate(d, x.TextSamples))
	default:
		fatal(fmt.Errorf("unknown format %q (want dtd or xsd)", *format))
	}
}

// openDocs assembles the labeled inputs: stdin when no files are named.
func openDocs() []dtd.Doc {
	if flag.NArg() == 0 {
		return []dtd.Doc{{Label: "stdin", R: os.Stdin}}
	}
	return openFileDocs()
}

// openFileDocs opens exactly the named files — no stdin fallback.
func openFileDocs() []dtd.Doc {
	docs := make([]dtd.Doc, 0, flag.NArg())
	for _, name := range flag.Args() {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		docs = append(docs, dtd.Doc{Label: name, R: f})
	}
	return docs
}

func closeDocs(docs []dtd.Doc) {
	for _, d := range docs {
		if c, ok := d.R.(io.Closer); ok && d.R != os.Stdin {
			c.Close()
		}
	}
}

// runContextual infers a k-local contextual schema instead of a DTD, with
// the same decoding caps and fault-isolation policy as the DTD path.
func runContextual(k int, algo core.Algorithm, opts *core.Options, format string,
	ingest *dtd.IngestOptions, policy dtd.ErrorPolicy, stats bool) {
	docs := openDocs()
	defer closeDocs(docs)
	x := contextual.NewExtraction(k)
	accepted, rejected := 0, 0
	for _, doc := range docs {
		if err := x.AddDocumentOptions(doc.R, ingest); err != nil {
			if policy == dtd.FailFast {
				fatal(fmt.Errorf("%s: %w", doc.Label, err))
			}
			rejected++
			fmt.Fprintf(os.Stderr, "dtdinfer: skipped %s: %v\n", doc.Label, err)
			continue
		}
		accepted++
	}
	if stats {
		fmt.Fprintf(os.Stderr, "ingested %d/%d documents (%d rejected)\n",
			accepted, accepted+rejected, rejected)
	}
	s, err := x.InferSchema(core.Inferrer(algo, opts))
	if err != nil {
		fatal(err)
	}
	switch format {
	case "dtd":
		fmt.Print(s)
		if !s.IsDTDExpressible() {
			fmt.Printf("(elements with context-dependent types: %v; flattened DTD below)\n",
				s.MultiTypeElements())
		}
		fmt.Println(s.ToDTD())
	case "xsd":
		fmt.Print(s.ToXSD())
	default:
		fatal(fmt.Errorf("unknown format %q (want dtd or xsd)", format))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtdinfer:", err)
	os.Exit(1)
}
