package dtd

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The encoding/xml ingestion path, kept as the differential-testing
// oracle for the xmltok one: the decode loop, the attribute recording and
// the sequence commit as they ran before ingestion moved to xmltok, with
// the glue that staged a document into a scratch extraction and merged it
// on success. FuzzTokenizerEquivalence, TestFastDecoderEquivalence and
// TestFastDecoderBatchEquivalence hold the two to identical acceptance
// and identical extraction state; the suites that range over
// sequentialRefs hold pipelined ingestion, snapshots and the caps to it.
// At context depth k > 0 the oracle keys observations by contexts it
// builds by joining the open elements' names (joinContext), apart from
// the ingester's memoized context IDs.

// stdIngestOne stages one document into a scratch extraction of the
// target's depth plus verbatim sequence buffers, then merges and commits
// them on success.
func stdIngestOne(ctx context.Context, r io.Reader, opts *IngestOptions, target *Extraction) (docStats, error) {
	stage, seqs := NewContextExtraction(target.k), map[string][][]string{}
	stats, err := stage.extractOne(ctx, r, opts, seqs)
	if err != nil {
		return stats, err
	}
	target.Merge(stage)
	target.commitSequences(seqs)
	return stats, nil
}

// stdAddDocs is AddDocs on the oracle: every document is staged and
// committed on success, under the same fault policy and with the same
// report counters as the batch loop.
func (x *Extraction) stdAddDocs(docs []Doc, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	report := &IngestReport{}
	var derr *DocumentError
	for i, doc := range docs {
		report.Documents++
		stats, err := stdIngestOne(context.Background(), doc.R, opts, x)
		report.Bytes += stats.bytes
		if err != nil {
			report.Rejected++
			e := &DocumentError{Index: i, Label: doc.Label, Err: err}
			report.Errors = append(report.Errors, e)
			if policy == FailFast {
				derr = e
				break
			}
			continue
		}
		report.Accepted++
		report.Tokens += stats.tokens
		report.Elements += stats.elements
	}
	report.TextOverflows = len(x.TextOverflow)
	if derr != nil {
		return report, derr
	}
	return report, nil
}

// sequentialRefs are the sequential ingestions that the limit, pipeline
// and snapshot suites hold their results to, by subtest name: AddDocs
// itself ("fast") and the encoding/xml oracle ("std").
var sequentialRefs = []struct {
	name string
	add  func(x *Extraction, docs []Doc, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error)
}{
	{"fast", (*Extraction).AddDocs},
	{"std", (*Extraction).stdAddDocs},
}

// joinContext returns the context of an element named name under the
// open elements ancestors (outermost first), keeping up to k of them.
func joinContext(ancestors []string, name string, k int) string {
	parts := []string{name}
	for i := len(ancestors) - 1; i >= 0 && len(parts) <= k; i-- {
		parts = append([]string{ancestors[i]}, parts...)
	}
	return strings.Join(parts, "/")
}

// extractOne runs the encoding/xml decode loop over one document,
// mutating x directly except for children sequences, which are buffered
// as verbatim strings into seqs, keyed like every other observation by
// the element's context at x's depth. A nil opts applies no resource
// caps.
func (x *Extraction) extractOne(ctx context.Context, r io.Reader, opts *IngestOptions, seqs map[string][][]string) (docStats, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	done := ctx.Done()
	mr := &meteredReader{r: r, max: o.MaxBytes}
	dec := xml.NewDecoder(mr)
	type frame struct {
		key      string
		children []string
	}
	var stack []frame
	var path []string // the open elements' names
	var stats docStats
	// names tracks distinct element names only when the cap is on.
	var names map[string]bool
	if o.MaxNames > 0 {
		names = make(map[string]bool, 16)
	}
	for {
		if done != nil && stats.tokens%cancelCheckInterval == 0 {
			select {
			case <-done:
				return stats, ctx.Err()
			default:
			}
		}
		tok, err := dec.Token()
		stats.bytes = mr.n
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return stats, le
			}
			return stats, fmt.Errorf("dtd: parsing XML: %w", err)
		}
		stats.tokens++
		if o.MaxTokens > 0 && stats.tokens > o.MaxTokens {
			return stats, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: dec.InputOffset()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			stats.elements++
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return stats, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: dec.InputOffset()}
			}
			name := t.Name.Local
			if o.MaxNames > 0 && !names[name] {
				if len(names) >= o.MaxNames {
					return stats, &LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: dec.InputOffset()}
				}
				names[name] = true
			}
			if len(stack) == 0 {
				x.Roots[name]++
			} else {
				top := &stack[len(stack)-1]
				top.children = append(top.children, name)
			}
			key := joinContext(path, name, x.k)
			for _, attr := range t.Attr {
				if attr.Name.Space == "xmlns" || attr.Name.Local == "xmlns" {
					continue
				}
				x.recordAttribute(key, attr.Name.Local, attr.Value)
			}
			stack = append(stack, frame{key: key})
			path = append(path, name)
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			path = path[:len(path)-1]
			seqs[top.key] = append(seqs[top.key], top.children)
		case xml.CharData:
			if trimmed := strings.TrimSpace(string(t)); len(stack) > 0 && trimmed != "" {
				key := stack[len(stack)-1].key
				x.HasText[key] = true
				if len(x.TextSamples[key]) < maxTextSamples {
					x.TextSamples[key] = append(x.TextSamples[key], trimmed)
				} else {
					x.TextOverflow[key] = true
				}
			}
		}
	}
	if len(stack) != 0 {
		return stats, fmt.Errorf("dtd: unbalanced XML document")
	}
	x.Documents++
	return stats, nil
}

// commitSequences folds one successfully decoded document's children
// sequences into the accumulator. Within each element the order of
// observation is preserved, so symbols intern in stream order; distinct
// elements have independent samples, so map iteration order is immaterial.
func (x *Extraction) commitSequences(seqs map[string][][]string) {
	for name, list := range seqs {
		s := x.sampleOf(name)
		for _, w := range list {
			s.Add(w)
		}
	}
}

// recordAttribute folds one observed attribute value into the stage's
// statistics. Merge carries them, and their fingerprint, into the target.
func (x *Extraction) recordAttribute(element, attribute, value string) {
	atts := x.Attributes[element]
	if atts == nil {
		atts = map[string]*attStats{}
		x.Attributes[element] = atts
	}
	st := atts[attribute]
	if st == nil {
		st = &attStats{}
		atts[attribute] = st
	}
	st.present++
	st.add(value, 1)
}
