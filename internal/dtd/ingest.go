package dtd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Ingestion hardening: real-world corpora are large and messy, so the
// extraction layer must survive truncated, malformed and adversarial
// documents without corrupting accumulated state or exhausting memory.
// This file provides the resource caps (IngestOptions), the per-document
// fault-isolation policies (ErrorPolicy), the batch API (AddDocuments)
// with its metrics report (IngestReport), and Merge, which folds one
// extraction into another. Every document is staged and committed only
// on success, so a failing one leaves the extraction untouched.

// IngestOptions caps the resources one document may consume during
// extraction, defending against XML bombs (deeply nested or enormous
// inputs). The zero value (or a nil pointer) applies no limits; use
// DefaultIngestOptions for production-safe caps. A violated cap aborts
// the document with a *LimitError and, by failure-atomicity, leaves the
// accumulator untouched.
type IngestOptions struct {
	// MaxDepth caps element nesting depth (0 = unlimited).
	MaxDepth int
	// MaxTokens caps the number of XML tokens per document (0 = unlimited).
	MaxTokens int64
	// MaxNames caps the number of distinct element names per document
	// (0 = unlimited), bounding accumulator growth on adversarial inputs.
	MaxNames int
	// MaxBytes caps the bytes read from one document (0 = unlimited).
	MaxBytes int64
}

// DefaultIngestOptions returns caps suitable for untrusted inputs:
// generous enough for any sane document, small enough that a decoding
// bomb is rejected long before memory pressure.
func DefaultIngestOptions() *IngestOptions {
	return &IngestOptions{
		MaxDepth:  10_000,
		MaxTokens: 50_000_000,
		MaxNames:  100_000,
		MaxBytes:  1 << 30, // 1 GiB
	}
}

// ErrLimit matches (with errors.Is) every cap violation.
var ErrLimit = errors.New("dtd: ingestion limit exceeded")

// LimitError reports which IngestOptions cap a document violated.
type LimitError struct {
	// Limit names the violated cap: "depth", "tokens", "names" or "bytes".
	Limit string
	// Max is the configured cap.
	Max int64
	// Offset is the byte position in the input where the cap was hit.
	Offset int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("dtd: input exceeds %s limit %d at offset %d", e.Limit, e.Max, e.Offset)
}

// Is makes errors.Is(err, ErrLimit) true for every cap violation.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// meteredReader counts bytes and fails the stream once max is exceeded.
// It never asks the underlying reader for more than max+1 bytes in all,
// so the cap fires at offset max+1 with the same bytes delivered whatever
// buffer the decoder reads into: encoding/xml's 4 KiB bufio and xmltok's
// 8 KiB read buffer see the same prefix of a document and fail at the
// same token.
type meteredReader struct {
	r   io.Reader
	n   int64
	max int64 // 0 = unlimited
}

func (m *meteredReader) Read(p []byte) (int, error) {
	if rest := m.max - m.n + 1; m.max > 0 && int64(len(p)) > rest {
		p = p[:rest]
	}
	n, err := m.r.Read(p)
	m.n += int64(n)
	if m.max > 0 && m.n > m.max {
		return n, &LimitError{Limit: "bytes", Max: m.max, Offset: m.n}
	}
	return n, err
}

// MeterReader wraps r so that reading more than max bytes fails the
// stream with a *LimitError (max <= 0 reads without limit). Exported for
// sibling packages that run their own decode loops under the same caps.
func MeterReader(r io.Reader, max int64) io.Reader {
	return &meteredReader{r: r, max: max}
}

// ErrorPolicy selects how a batch reacts to a failing document.
type ErrorPolicy int

const (
	// FailFast aborts the batch at the first failing document. Documents
	// before it stay committed; the failing one is rolled back.
	FailFast ErrorPolicy = iota
	// SkipAndRecord rolls back each failing document, records it in the
	// IngestReport, and continues with the rest of the batch.
	SkipAndRecord
)

func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipAndRecord:
		return "skip-and-record"
	}
	return fmt.Sprintf("ErrorPolicy(%d)", int(p))
}

// DocumentError is one document's ingestion failure.
type DocumentError struct {
	// Index is the document's position in the batch.
	Index int
	// Label identifies the document (a file name, or "document N").
	Label string
	// Err is the underlying parse or limit error.
	Err error
}

func (e *DocumentError) Error() string { return fmt.Sprintf("%s: %v", e.Label, e.Err) }

func (e *DocumentError) Unwrap() error { return e.Err }

// IngestReport aggregates counters and per-document errors from a batch.
type IngestReport struct {
	// Documents counts documents attempted.
	Documents int
	// Accepted counts documents committed into the extraction.
	Accepted int
	// Rejected counts documents rolled back.
	Rejected int
	// Bytes counts input bytes consumed (including rejected documents, up
	// to their point of failure).
	Bytes int64
	// Tokens counts XML tokens decoded from accepted documents.
	Tokens int64
	// Elements counts start-element tokens in accepted documents.
	Elements int64
	// TextOverflows counts elements whose text samples were truncated at
	// the per-element cap — entries in Extraction.TextOverflow after the
	// batch, mirroring the attribute statistics' overflow flag.
	TextOverflows int
	// Errors lists one entry per rejected document.
	Errors []*DocumentError
	// Pipeline carries the streaming-ingestion stage timings when the
	// batch ran on the pipelined parallel path (nil otherwise). The
	// durations are wall-clock measurements — everything else in the
	// report stays deterministic for a given batch.
	Pipeline *PipelineStats
}

// add accumulates another report's counters and errors into r, used when
// concatenating per-shard reports in shard order. TextOverflows is not
// additive (it is a property of the merged extraction, not of a shard)
// and is set by the batch APIs after commit.
func (r *IngestReport) add(o *IngestReport) {
	r.Documents += o.Documents
	r.Accepted += o.Accepted
	r.Rejected += o.Rejected
	r.Bytes += o.Bytes
	r.Tokens += o.Tokens
	r.Elements += o.Elements
	r.Errors = append(r.Errors, o.Errors...)
}

// Err returns the first per-document error (nil when all were accepted).
func (r *IngestReport) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	return r.Errors[0]
}

// String renders a short human-readable summary plus one line per error.
func (r *IngestReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ingested %d/%d documents (%d rejected), %d bytes, %d tokens, %d elements",
		r.Accepted, r.Documents, r.Rejected, r.Bytes, r.Tokens, r.Elements)
	if r.TextOverflows > 0 {
		fmt.Fprintf(&b, ", %d elements with truncated text samples", r.TextOverflows)
	}
	if p := r.Pipeline; p != nil {
		fmt.Fprintf(&b, "\n  pipeline: %d workers x %d shards in %d flush units (%d arenas reused), wall %v",
			p.Workers, p.Shards, p.FlushUnits, p.ArenaReuses, p.Wall.Round(time.Microsecond))
		fmt.Fprintf(&b, "\n  workers: decode %v, flush-wait %v; committer: commit %v, idle %v",
			p.Decode.Round(time.Microsecond), p.FlushWait.Round(time.Microsecond),
			p.Commit.Round(time.Microsecond), p.CommitterIdle.Round(time.Microsecond))
		if p.FinalMerge > 0 {
			fmt.Fprintf(&b, ", final merge %v", p.FinalMerge.Round(time.Microsecond))
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\n  %v", e)
	}
	return b.String()
}

// Doc pairs a reader with a label for error reporting.
type Doc struct {
	Label string
	R     io.Reader
}

// AddDocumentOptions parses one XML document under the given resource
// caps and accumulates its observations. The operation is failure-atomic:
// on any error (malformed XML, unbalanced tags, violated cap) the
// extraction is left exactly as it was.
func (x *Extraction) AddDocumentOptions(r io.Reader, opts *IngestOptions) error {
	_, err := newFastIngester().ingestOne(context.Background(), r, opts, x)
	return err
}

// AddDocuments ingests a batch of documents with per-document fault
// isolation under the chosen policy, labeling documents by position.
// The report is never nil. Under SkipAndRecord the error is always nil
// and failures are only recorded in the report; under FailFast the first
// failure is returned (and recorded) and later documents are not read.
func (x *Extraction) AddDocuments(docs []io.Reader, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	return x.AddDocs(labelDocs(docs), opts, policy)
}

// labelDocs labels documents by their position in the batch.
func labelDocs(docs []io.Reader) []Doc {
	labeled := make([]Doc, len(docs))
	for i, r := range docs {
		labeled[i] = Doc{Label: fmt.Sprintf("document %d", i), R: r}
	}
	return labeled
}

// AddDocs is AddDocuments with caller-supplied labels (file names).
func (x *Extraction) AddDocs(docs []Doc, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	return x.AddDocsContext(context.Background(), docs, opts, policy)
}

// AddDocumentsContext is AddDocuments under a context, labeling documents
// by position. See AddDocsContext for the cancellation contract.
func (x *Extraction) AddDocumentsContext(ctx context.Context, docs []io.Reader, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	return x.AddDocsContext(ctx, labelDocs(docs), opts, policy)
}

// AddDocsContext is AddDocs under a context. Cancellation is batch-atomic:
// the whole batch is staged and committed only when the context is still
// live at the end, so a cancelled call returns ctx.Err() (alongside the
// partial report) and leaves x exactly as it was — no torn prefix to
// reason about. Per-document faults keep their AddDocs semantics: under
// FailFast the documents preceding the failure commit and the failing
// *DocumentError is returned; under SkipAndRecord failures land in the
// report only.
//
// The batch-level staging is paid only when the context can actually be
// cancelled; with a Done-less context (context.Background()) documents
// commit directly into x and the call costs exactly what AddDocs does.
func (x *Extraction) AddDocsContext(ctx context.Context, docs []Doc, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	report := &IngestReport{}
	target := x
	if ctx.Done() != nil {
		target = NewExtraction()
	}
	derr, cancelErr := runIngest(newFastIngester(), ctx, target, docs, 0, opts, policy, report)
	if cancelErr != nil {
		return report, cancelErr
	}
	if target != x {
		x.Merge(target)
	}
	report.TextOverflows = len(x.TextOverflow)
	if derr != nil {
		return report, derr
	}
	return report, nil
}

// runIngest runs the per-document staging loop into x through ing,
// labeling errors with baseIndex+i so a shard of a larger batch reports
// original document positions. The first return is the first failing
// document under FailFast; the second is the context's error when the
// batch was abandoned mid-way — a cancelled document is batch abortion,
// not a per-document fault, so it is never recorded in the report. This
// is the single ingestion loop shared by the sequential and parallel
// batch APIs: a parallel worker passes its own ingester, in shard mode,
// amortizing its decoder and staging buffers across every shard it
// claims.
func runIngest(ing *fastIngester, ctx context.Context, x *Extraction, docs []Doc, baseIndex int, opts *IngestOptions, policy ErrorPolicy, report *IngestReport) (*DocumentError, error) {
	for i, doc := range docs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report.Documents++
		stats, err := ing.ingestOne(ctx, doc.R, opts, x)
		report.Bytes += stats.bytes
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The decode loop observed cancellation (or the reader
				// failed while the context was already dead): abandon the
				// batch instead of charging the document with a fault.
				report.Documents--
				report.Bytes -= stats.bytes
				return nil, cerr
			}
			report.Rejected++
			derr := &DocumentError{Index: baseIndex + i, Label: doc.Label, Err: err}
			report.Errors = append(report.Errors, derr)
			if policy == FailFast {
				return derr, nil
			}
			continue
		}
		report.Accepted++
		report.Tokens += stats.tokens
		report.Elements += stats.elements
	}
	return nil, nil
}

// Merge folds another extraction's observations into x, preserving the
// per-element text-sample and attribute-value caps: text samples and
// attribute values fold in o's observation order, so Merge(a); Merge(b)
// is equivalent to ingesting a's and b's documents directly, and
// repeating a merge gives one result. Sequence samples merge at the
// interned-ID level (see sample.Set.Merge): cost is proportional to o's
// *unique* sequences, and element-name strings are only touched on the
// first corpus-wide sight of a symbol.
func (x *Extraction) Merge(o *Extraction) {
	for name, seqs := range o.Sequences {
		s := x.sampleOf(name)
		before := s.ShapeFingerprint()
		s.Merge(seqs)
		if s.ShapeFingerprint() != before {
			x.markDirty(name)
		}
	}
	for name, has := range o.HasText {
		if has && !x.HasText[name] {
			x.HasText[name] = true
			x.markDirty(name)
		}
	}
	for name, samples := range o.TextSamples {
		x.addTexts(name, samples)
	}
	for name, of := range o.TextOverflow {
		if of {
			x.TextOverflow[name] = true
		}
	}
	for elem, atts := range o.Attributes {
		for att, st := range atts {
			x.foldAttStats(elem, att, st)
		}
	}
	for name, n := range o.Roots {
		x.Roots[name] += n
	}
	x.Documents += o.Documents
}

// addTexts appends text samples to an element's under the per-element
// cap. Samples beyond the cap are dropped, so the kept set is no longer
// the complete observation: a drop sets the element's overflow flag.
func (x *Extraction) addTexts(name string, texts []string) {
	if len(texts) == 0 {
		return
	}
	have := x.TextSamples[name]
	if room := max(maxTextSamples-len(have), 0); len(texts) > room {
		texts = texts[:room]
		x.TextOverflow[name] = true
	}
	x.TextSamples[name] = append(have, texts...)
}

// foldAttStats folds one element/attribute statistic into x, value by
// value in o's first-seen order, under the distinct-value cap. Merge, the
// per-document commit and the pipeline committer all fold through it, so
// the values kept at the cap never depend on which path ran. The element
// is marked dirty on attribute-shape changes (new attribute, new distinct
// value, overflow flip) but not on bare presence-count bumps —
// <!ATTLIST> declarations are recomputed on every inference pass, so the
// dirty bit only tracks changes that could alter them. Every state change
// is mirrored into the element's attribute fingerprint.
func (x *Extraction) foldAttStats(elem, att string, o *attStats) {
	atts := x.Attributes[elem]
	if atts == nil {
		atts = map[string]*attStats{}
		x.Attributes[elem] = atts
	}
	st := atts[att]
	if st == nil {
		st = &attStats{}
		atts[att] = st
		x.markDirty(elem)
	}
	hp, hov, hval := attNameHashes(att)
	wasOverflow := st.overflow
	st.present += o.present
	x.attFpAdd(elem, hp, o.present)
	st.overflow = st.overflow || o.overflow
	for _, vc := range o.vals {
		kept, isNew := st.add(vc.v, vc.n)
		if isNew {
			x.markDirty(elem)
		}
		if kept {
			x.attFpAdd(elem, attValueHash(hval, vc.v), vc.n)
		}
	}
	if st.overflow && !wasOverflow {
		x.attFpAdd(elem, hov, 1)
		x.markDirty(elem)
	}
}

// InferStats reports per-element timings from InferDTDElements' worker
// pool.
type InferStats struct {
	// Wall is the wall-clock time of the whole inference.
	Wall time.Duration
	// PerElement holds one entry per inferred element, in the DTD's
	// deterministic element order.
	PerElement []ElementTiming
	// Outcomes holds one entry per element whose inferrer reported an
	// outcome (engine used, degradation rung, cause), in the DTD's
	// deterministic element order. Empty when the inferrer predates the
	// outcome protocol or no element has children content.
	Outcomes []ElementOutcome
	// Cached reports whether this pass consulted a model cache (see
	// InferDTDElementsCached); the counters below are meaningful only
	// when it is set. Hits returned a memoized model without running an
	// engine; misses had no cached entry; recomputes had an entry whose
	// fingerprint no longer matched the sample.
	Cached          bool
	CacheHits       int
	CacheMisses     int
	CacheRecomputes int
	// Dirty counts the elements whose structural observations had
	// changed since the previous cached pass, captured before this pass
	// cleared the bits.
	Dirty int
	// AttListReplayed reports (for cached passes) whether <!ATTLIST>
	// inference was replayed from the attribute-fingerprint cache
	// instead of recomputed — true on a warm pass with no attribute-
	// relevant changes since the previous one.
	AttListReplayed bool
}

// ElementTiming is one element's inference cost.
type ElementTiming struct {
	// Name is the element name.
	Name string
	// Sequences is the sample size the content model was inferred from.
	Sequences int
	// Duration is the time spent inferring this element's declaration.
	Duration time.Duration
}

// String renders the timings, slowest element first.
func (s *InferStats) String() string {
	order := make([]ElementTiming, len(s.PerElement))
	copy(order, s.PerElement)
	for i := 1; i < len(order); i++ { // insertion sort by duration, desc
		for j := i; j > 0 && order[j].Duration > order[j-1].Duration; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "inferred %d elements in %v", len(order), s.Wall)
	if s.Cached {
		attlist := "recomputed"
		if s.AttListReplayed {
			attlist = "replayed"
		}
		fmt.Fprintf(&b, "\n  cache: %d hits, %d misses, %d recomputes; %d dirty elements; attlist %s",
			s.CacheHits, s.CacheMisses, s.CacheRecomputes, s.Dirty, attlist)
	}
	for _, t := range order {
		fmt.Fprintf(&b, "\n  %-24s %8d seqs  %v", t.Name, t.Sequences, t.Duration)
	}
	for _, o := range s.Outcomes {
		if o.DegradedFrom == "" {
			continue
		}
		fmt.Fprintf(&b, "\n  %-24s degraded %s -> %s (%s)", o.Name, o.DegradedFrom, o.Engine, o.Cause)
	}
	return b.String()
}
