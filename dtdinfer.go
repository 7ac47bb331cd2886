// Package dtdinfer infers concise Document Type Definitions from XML data,
// implementing Bex, Neven, Schwentick and Tuyls, "Inference of Concise DTDs
// from XML Data" (VLDB 2006).
//
// DTD inference reduces to learning a deterministic regular expression for
// each element name from the sequences of child elements observed in a
// corpus. This package learns two classes that cover over 99% of content
// models in real-world schemas:
//
//   - SOREs (single occurrence regular expressions), via the iDTD
//     algorithm: a 2T-INF automaton is inferred from the sample and
//     rewritten into an equivalent SORE, with repair rules producing a
//     tight super-approximation when the sample is not representative.
//     Best with plenty of data.
//   - CHAREs (chain regular expressions), via the CRX algorithm, which
//     generalizes aggressively and needs very few example strings — the
//     right choice for sparse data such as web-service responses.
//
// Quick start:
//
//	docs := []io.Reader{strings.NewReader(xmlDoc1), strings.NewReader(xmlDoc2)}
//	d, err := dtdinfer.InferDTD(docs, dtdinfer.IDTD, nil)
//	fmt.Println(d) // <!DOCTYPE root [ <!ELEMENT ...> ... ]>
//
// Baseline systems from the paper's evaluation (XTRACT, a Trang-like
// pipeline, and classical state elimination) are available through the same
// API for comparison, and internal/experiments regenerates every table and
// figure of the paper.
package dtdinfer

import (
	"context"
	"io"

	"dtdinfer/internal/contextual"
	"dtdinfer/internal/core"
	"dtdinfer/internal/crx"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
	"dtdinfer/internal/xsd"
)

// Algorithm selects the inference engine.
type Algorithm = core.Algorithm

// The available algorithms: the paper's two contributions and its
// comparison systems.
const (
	// IDTD infers SOREs (best with abundant data).
	IDTD = core.IDTD
	// CRX infers CHAREs (best with sparse data).
	CRX = core.CRX
	// RewriteOnly is rewrite without repairs; it fails on samples that are
	// not representative.
	RewriteOnly = core.RewriteOnly
	// XTRACT is the reconstruction of the XTRACT baseline.
	XTRACT = core.XTRACT
	// TrangLike is the reconstruction of Trang's inference strategy.
	TrangLike = core.TrangLike
	// StateElim translates the inferred automaton by classical state
	// elimination (the paper's negative baseline for conciseness).
	StateElim = core.StateElim
)

// ParseAlgorithm converts a command-line name into an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// Options tune the engines; the zero value (or nil) uses the paper's
// settings (k = 2 for iDTD's repair rules, 1000-string cap for XTRACT).
type Options = core.Options

// Budget caps the resources one element's inference may consume: a
// wall-clock deadline, an automaton state count, and an output expression
// size. The zero value applies no caps.
type Budget = core.Budget

// DegradeMode selects the reaction when an element's engine fails,
// exceeds its Budget, or panics.
type DegradeMode = core.DegradeMode

const (
	// DegradeFail propagates the failure, aborting the whole inference
	// (the default for library callers).
	DegradeFail = core.DegradeFail
	// DegradeLadder falls back per element: configured engine, then CRX,
	// then the universal content model (a1|...|an)*. The accepted rung is
	// recorded in the InferStats outcomes.
	DegradeLadder = core.DegradeLadder
)

// ElementOutcome records which engine produced an element's content model
// and whether (and why) inference degraded.
type ElementOutcome = dtd.ElementOutcome

// IDTDOptions configure the iDTD repair rules and noise handling.
type IDTDOptions = idtd.Options

// Expr is a regular expression over element names (a content model).
type Expr = regex.Expr

// ParseExpr parses a content model in either the paper's notation
// ("(b?(a + c))+d") or DTD notation ("((b?,(a|c))+,d)").
func ParseExpr(src string) (*Expr, error) { return regex.Parse(src) }

// DTD is an inferred or parsed Document Type Definition.
type DTD = dtd.DTD

// Element is one element declaration of a DTD.
type Element = dtd.Element

// Extraction accumulates child-element sequences from XML documents.
type Extraction = dtd.Extraction

// NewExtraction returns an empty accumulator; add documents with
// AddDocument and infer with InferDTDFromExtraction.
func NewExtraction() *Extraction { return dtd.NewExtraction() }

// IngestOptions caps the resources one document may consume during
// extraction (nesting depth, token count, distinct element names, input
// bytes) — the XML-bomb defense for untrusted corpora. The zero value
// applies no limits.
type IngestOptions = dtd.IngestOptions

// DefaultIngestOptions returns production-safe caps for untrusted inputs.
func DefaultIngestOptions() *IngestOptions { return dtd.DefaultIngestOptions() }

// ErrLimit matches (with errors.Is) every ingestion cap violation.
var ErrLimit = dtd.ErrLimit

// LimitError reports which ingestion cap a document violated.
type LimitError = dtd.LimitError

// ErrorPolicy selects how batch ingestion reacts to a failing document.
type ErrorPolicy = dtd.ErrorPolicy

const (
	// FailFast aborts the batch at the first failing document.
	FailFast = dtd.FailFast
	// SkipAndRecord records failing documents in the IngestReport and
	// continues; each failure is rolled back, isolating its fault.
	SkipAndRecord = dtd.SkipAndRecord
)

// IngestReport aggregates ingestion counters and per-document errors.
type IngestReport = dtd.IngestReport

// DocumentError is one document's ingestion failure inside a batch.
type DocumentError = dtd.DocumentError

// InferStats reports per-element timings from the inference worker pool.
type InferStats = dtd.InferStats

// InferDTDWithReport ingests the documents under the given caps and
// fault-isolation policy, infers a DTD, and reports ingestion counters and
// per-element inference timings. Every AddDocument is failure-atomic, so a
// skipped document contributes nothing: the batch with a malformed
// document (under SkipAndRecord) infers the same DTD as the batch without
// it, with the failure recorded in the report.
func InferDTDWithReport(docs []io.Reader, algo Algorithm, opts *Options,
	ingest *IngestOptions, policy ErrorPolicy) (*DTD, *IngestReport, *InferStats, error) {
	return core.InferDTDReport(docs, algo, opts, ingest, policy)
}

// Validator checks documents against a DTD.
type Validator = dtd.Validator

// Violation is one validation failure.
type Violation = dtd.Violation

// NewValidator compiles a DTD's content models for validation.
func NewValidator(d *DTD) *Validator { return dtd.NewValidator(d) }

// ParseDTD reads <!ELEMENT> declarations, optionally wrapped in
// <!DOCTYPE root [...]>.
func ParseDTD(src string) (*DTD, error) { return dtd.Parse(src) }

// InferContentModel learns a single content-model expression from positive
// example strings (sequences of child element names).
func InferContentModel(sample [][]string, algo Algorithm, opts *Options) (*Expr, error) {
	return core.InferExpr(sample, algo, opts)
}

// InferDTD extracts element sequences from the XML documents and infers a
// complete DTD.
func InferDTD(docs []io.Reader, algo Algorithm, opts *Options) (*DTD, error) {
	return core.InferDTD(docs, algo, opts)
}

// InferDTDContext is InferDTD under a context: cancellation propagates
// into the XML decode loops and every engine's hot loop, and opts.Budget
// and opts.Degrade govern per-element resource caps and the degradation
// ladder. A cancelled call returns ctx.Err() promptly without leaking
// goroutines.
func InferDTDContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options) (*DTD, error) {
	return core.InferDTDContext(ctx, docs, algo, opts)
}

// InferDTDFromExtraction infers a DTD from pre-extracted sequences,
// supporting incremental workflows where extraction state is kept while new
// documents arrive. Repeated calls with the same algorithm and options are
// memoized per element: only elements whose samples changed since the
// previous call re-enter the engines, and the result stays byte-identical
// to a cold inference.
func InferDTDFromExtraction(x *Extraction, algo Algorithm, opts *Options) (*DTD, error) {
	return core.InferDTDFromExtraction(x, algo, opts)
}

// Doc is one labelled document in an ingestion batch: a reader plus the
// label (typically a file name) error reports attribute failures to.
type Doc = dtd.Doc

// Snapshot is one published inference result: an immutable DTD tagged
// with a monotonically increasing version, plus the stats of the pass
// that produced it. Readers may hold a snapshot indefinitely while newer
// versions are published.
type Snapshot = core.Snapshot

// Incremental maintains a DTD over a growing corpus: ingest batches with
// AddDocs, publish immutable versioned snapshots with Refresh, and read
// the latest with Current (a lock-free atomic load, safe concurrent with
// ingestion and re-inference). Re-inference is incremental: elements
// whose samples are unchanged replay their cached content models.
type Incremental = core.Incremental

// NewIncremental returns an empty incremental inferrer for the given
// engine configuration.
func NewIncremental(algo Algorithm, opts *Options) *Incremental {
	return core.NewIncremental(algo, opts)
}

// NewIncrementalFromExtraction wraps an existing extraction — typically
// one recovered with LoadCorpus — so incremental inference resumes from
// persisted state instead of an empty corpus.
func NewIncrementalFromExtraction(x *Extraction, algo Algorithm, opts *Options) *Incremental {
	return core.NewIncrementalFromExtraction(x, algo, opts)
}

// RetryPolicy bounds a retried operation: attempts, exponential backoff
// with jitter, and a backoff cap. The zero value means the defaults
// (3 attempts, 50ms initial backoff, 2s cap).
type RetryPolicy = core.RetryPolicy

// SaveCorpusRetry is SaveCorpus under a retry policy: transient write
// failures are retried with jittered exponential backoff. A nil policy
// uses the defaults.
func SaveCorpusRetry(x *Extraction, path string, policy *RetryPolicy) error {
	return core.SaveCorpusRetry(x, path, policy)
}

// ChangeFeed renders what changed between two published snapshots
// ("v3→v4: modified <order>, added <sku>"). A nil prev reports every
// element as added.
func ChangeFeed(prev, next *Snapshot) string { return core.ChangeFeed(prev, next) }

// SaveCorpus writes the extraction's corpus summary — counted samples,
// text and attribute statistics, and incremental-inference state — to
// path atomically (temp file + rename). A summary is typically kilobytes
// regardless of corpus size, loads in time proportional to its own size,
// and infers byte-identically to the extraction it was saved from.
func SaveCorpus(x *Extraction, path string) error { return core.SaveCorpus(x, path) }

// LoadCorpus reads a corpus summary written by SaveCorpus. The bytes are
// validated as untrusted input: corruption yields an error, never a
// panic. The loaded extraction accepts further documents, merges with
// other summaries via MergeSummary, and replays any cached content
// models it was saved with.
func LoadCorpus(path string) (*Extraction, error) { return core.LoadCorpus(path) }

// WriteCorpus and ReadCorpus are the io.Writer/io.Reader forms of
// SaveCorpus and LoadCorpus.
func WriteCorpus(x *Extraction, w io.Writer) error { return core.WriteCorpus(x, w) }

// ReadCorpus reads a corpus summary from r; see WriteCorpus. After the
// five-byte header it reads all of r to EOF and holds it in memory while
// decoding, so r must end, and data after the summary is read before it
// is rejected.
func ReadCorpus(r io.Reader) (*Extraction, error) { return core.ReadCorpus(r) }

// InferXSD infers a schema and renders it as W3C XML Schema with datatype
// detection over the sampled text values.
func InferXSD(docs []io.Reader, algo Algorithm, opts *Options) (string, error) {
	return core.InferXSD(docs, algo, opts)
}

// InferXSDContext is InferXSD under a context, with the same cancellation
// and budget semantics as InferDTDContext.
func InferXSDContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options) (string, error) {
	return core.InferXSDContext(ctx, docs, algo, opts)
}

// GenerateXSD renders an existing DTD as XML Schema; textSamples (may be
// nil) drives datatype detection for text-only elements.
func GenerateXSD(d *DTD, textSamples map[string][]string) string {
	return xsd.Generate(d, textSamples)
}

// ParseXSD reads an XML Schema document (the DTD-expressible subset that
// GenerateXSD emits) back into a DTD.
func ParseXSD(src string) (*DTD, error) { return xsd.Parse(src) }

// Attribute is one attribute declaration of an element; inference derives
// ID/IDREF/enumeration/NMTOKEN types and #REQUIRED/#IMPLIED use from the
// observed attribute values.
type Attribute = dtd.Attribute

// IncrementalCRX is the summary state for incremental CHARE inference
// (Section 9): fold strings in with AddString, combine summaries with
// Merge, and obtain the current expression with Infer.
type IncrementalCRX = crx.State

// NewIncrementalCRX returns an empty CRX summary.
func NewIncrementalCRX() *IncrementalCRX { return crx.NewState() }

// ContextualSchema is a schema with k-local typing: the content model of
// an element may depend on up to k ancestor names, exceeding DTD
// expressiveness exactly the way XML Schema does — the paper's stated
// future work, realized for the k-local case.
type ContextualSchema = contextual.Schema

// InferContextualSchema extracts per-context samples (contexts keep up to
// k ancestor names; k = 0 degenerates to DTD inference) and infers a
// contextual schema with the chosen algorithm. Ingestion and inference
// are InferDTD's — sharded, fail-fast, under opts' parallelism, budget
// and degradation mode — over a context extraction. Contexts of an
// element with equivalent content languages and equivalent child typing
// are merged, so the schema has as few types as the data supports;
// render it with ToXSD, flatten with ToDTD, or validate with
// contextual.NewValidator.
func InferContextualSchema(docs []io.Reader, k int, algo Algorithm, opts *Options) (*ContextualSchema, error) {
	x := dtd.NewContextExtraction(k)
	workers := 0
	if opts != nil {
		workers = opts.Parallelism
	}
	if _, err := x.AddDocumentsParallel(docs, workers, nil, dtd.FailFast); err != nil {
		return nil, err
	}
	d, err := core.InferDTDFromExtraction(x, algo, opts)
	if err != nil {
		return nil, err
	}
	return contextual.FromDTD(d, k), nil
}

// NewContextualValidator compiles a contextual schema for validation.
func NewContextualValidator(s *ContextualSchema) *contextual.Validator {
	return contextual.NewValidator(s)
}

// IncrementalSOA is the single occurrence automaton summary for
// incremental SORE inference: fold strings in with AddString, combine with
// Merge, and obtain the current SORE with InferSORE. The automaton is
// quadratic in the alphabet regardless of how much data it has absorbed.
type IncrementalSOA = soa.SOA

// NewIncrementalSOA returns an empty automaton summary.
func NewIncrementalSOA() *IncrementalSOA { return soa.New() }

// InferSORE runs iDTD on an accumulated automaton summary.
func InferSORE(a *IncrementalSOA, opts *Options) (*Expr, error) {
	var io *IDTDOptions
	if opts != nil {
		io = &opts.IDTD
	}
	res, err := idtd.FromSOA(a, io)
	if err != nil {
		return nil, err
	}
	return res.Expr, nil
}
