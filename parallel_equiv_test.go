package dtdinfer

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
)

// TestParallelIngestionDTDByteIdentical is the parallel/sequential
// equivalence property: for shuffled corpora and worker counts 2..8, the
// inferred DTD must be byte-identical to sequential inference on the same
// document order. 2T-INF and the CRX summaries are commutative unions and
// the pipelined committer replays document order (shard k folds into the
// corpus while k+1..N still decode), so neither parallelism nor the
// decode/commit overlap must be observable in the output.
func TestParallelIngestionDTDByteIdentical(t *testing.T) {
	base := corpus.Protein(3, 90)
	base = append(base, corpus.Mondial(4, 40)...)
	for _, algo := range []Algorithm{IDTD, CRX} {
		for shuffle := int64(0); shuffle < 3; shuffle++ {
			docs := append([]string(nil), base...)
			rand.New(rand.NewSource(shuffle)).Shuffle(len(docs), func(i, j int) {
				docs[i], docs[j] = docs[j], docs[i]
			})
			want := inferString(t, docs, algo, 1)
			for workers := 2; workers <= 8; workers++ {
				if got := inferString(t, docs, algo, workers); got != want {
					t.Errorf("algo=%s shuffle=%d workers=%d: DTD differs from sequential\ngot:\n%s\nwant:\n%s",
						algo, shuffle, workers, got, want)
				}
			}
		}
	}
}

// TestParallelIngestionPipelinedBothDecoders sweeps the pipelined path
// across worker counts 2..8 under both of its commit modes: with a
// Done-less context the committer folds shards straight into the corpus;
// with a cancellable one it folds into a staging extraction that the
// corpus adopts (first batch) or merges (second batch). Both must
// reproduce the sequential DTD byte-for-byte. The test keeps the name it
// had when its two arms were the two XML decoders.
func TestParallelIngestionPipelinedBothDecoders(t *testing.T) {
	docs := append(corpus.Protein(7, 60), corpus.Mondial(8, 25)...)
	want := inferString(t, docs, IDTD, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	half := len(docs) / 2
	for workers := 2; workers <= 8; workers++ {
		if got := inferString(t, docs, IDTD, workers); got != want {
			t.Errorf("direct workers=%d: DTD differs from sequential\ngot:\n%s\nwant:\n%s",
				workers, got, want)
		}
		x := NewExtraction()
		for _, batch := range [][]string{docs[:half], docs[half:]} {
			if _, err := x.AddDocsParallelContext(ctx, labelled(batch), workers, nil, SkipAndRecord); err != nil {
				t.Fatalf("staged workers=%d: %v", workers, err)
			}
		}
		d, err := InferDTDFromExtraction(x, IDTD, nil)
		if err != nil {
			t.Fatalf("staged workers=%d: %v", workers, err)
		}
		if got := d.String(); got != want {
			t.Errorf("staged workers=%d: DTD differs from sequential\ngot:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
}

func labelled(docs []string) []Doc {
	batch := make([]Doc, len(docs))
	for i, d := range docs {
		batch[i] = Doc{Label: fmt.Sprintf("doc%d", i), R: strings.NewReader(d)}
	}
	return batch
}

func inferString(t *testing.T, docs []string, algo Algorithm, workers int) string {
	t.Helper()
	readers := make([]io.Reader, len(docs))
	for i, d := range docs {
		readers[i] = strings.NewReader(d)
	}
	d, _, _, err := InferDTDWithReport(readers, algo,
		&Options{Parallelism: workers}, nil, dtd.SkipAndRecord)
	if err != nil {
		t.Fatalf("algo=%s workers=%d: %v", algo, workers, err)
	}
	return d.String()
}
