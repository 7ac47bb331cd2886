package dtdinfer

// Incremental-equivalence tests: inference memoized across interleaved
// AddDocs/infer cycles must be byte-identical to one-shot cold inference
// of the same corpus — across every engine and any worker count. These
// are the cache-invalidation regression gate: a fingerprint
// false-positive (stale model replayed after the sample changed) shows up
// here as a warm/cold divergence.

import (
	"fmt"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
)

// inferOutcome renders an inference result for comparison: the DTD text
// on success, the error text on failure (engines like rewrite-only fail
// on non-representative samples; warm and cold must fail identically).
func inferOutcome(x *Extraction, algo Algorithm) string {
	d, err := InferDTDFromExtraction(x, algo, nil)
	if err != nil {
		return "error: " + err.Error()
	}
	return d.String()
}

func ingestBatch(t *testing.T, x *Extraction, docs []string, workers int, opts *IngestOptions) {
	t.Helper()
	batch := make([]dtd.Doc, len(docs))
	for i, d := range docs {
		batch[i] = dtd.Doc{Label: fmt.Sprintf("doc%d", i), R: strings.NewReader(d)}
	}
	if _, err := x.AddDocsParallel(batch, workers, opts, FailFast); err != nil {
		t.Fatal(err)
	}
}

// equivBatches is a corpus delta sequence exercising the cache's
// transitions: a cold start, a repeat-only batch (multiplicity bumps,
// shapes unchanged), and a batch introducing new shapes, a new element,
// a text flip and an attribute.
func equivBatches() [][]string {
	return [][]string{
		{
			`<r v="1"><x><y/></x><x><y/><y/></x></r>`,
			`<r><x><y/></x><t>alpha</t></r>`,
		},
		{
			`<r v="2"><x><y/></x><x><y/><y/></x></r>`, // shapes already seen
		},
		{
			`<r><x><z/><y/></x><t>beta</t><t>gamma</t></r>`, // new shapes + element
			`<r><x><y/>mixed</x></r>`,                       // x flips to mixed
		},
	}
}

// TestIncrementalColdWarmIdentical is the make-check smoke: for every
// registered engine, a warm extraction re-inferred after each batch must
// render byte-identically to a cold extraction built from scratch over
// the same prefix of the corpus.
func TestIncrementalColdWarmIdentical(t *testing.T) {
	algos := []Algorithm{IDTD, CRX, RewriteOnly, XTRACT, TrangLike, StateElim}
	for _, algo := range algos {
		t.Run(string(algo), func(t *testing.T) {
			warm := NewExtraction()
			var all []string
			for bi, batch := range equivBatches() {
				all = append(all, batch...)
				ingestBatch(t, warm, batch, 1, nil)
				got := inferOutcome(warm, algo)

				cold := NewExtraction()
				ingestBatch(t, cold, all, 1, nil)
				want := inferOutcome(cold, algo)
				if got != want {
					t.Fatalf("batch %d: warm differs from cold\nwarm: %s\ncold: %s", bi, got, want)
				}
			}
		})
	}
}

// TestIncrementalInterleavedEquivalence is the property test across the
// ingestion matrix: interleaved AddDocs/infer/AddDocs cycles at workers
// 1..8 must stay byte-identical to one-shot cold inference at every step.
// IDTD and CRX cover every worker count; every registered engine runs at
// one to bound the runtime. Subtests keep the fast/ prefix they were
// named under beside the retired encoding/xml decoder.
func TestIncrementalInterleavedEquivalence(t *testing.T) {
	batches := [][]string{
		corpus.Protein(1, 6),
		corpus.Protein(2, 6),
		append(corpus.Protein(1, 3), equivBatches()[2]...),
	}
	allAlgos := []Algorithm{IDTD, CRX, RewriteOnly, XTRACT, TrangLike, StateElim}
	for _, workers := range []int{1, 2, 3, 8} {
		algos := []Algorithm{IDTD, CRX}
		if workers == 2 {
			algos = allAlgos
		}
		for _, algo := range algos {
			t.Run(fmt.Sprintf("fast/workers=%d/%s", workers, algo), func(t *testing.T) {
				warm := NewExtraction()
				var all []string
				for bi, batch := range batches {
					all = append(all, batch...)
					ingestBatch(t, warm, batch, workers, nil)
					got := inferOutcome(warm, algo)

					cold := NewExtraction()
					ingestBatch(t, cold, all, 1, nil)
					want := inferOutcome(cold, algo)
					if got != want {
						t.Fatalf("batch %d: warm differs from cold\nwarm: %s\ncold: %s", bi, got, want)
					}
				}
			})
		}
	}
}
