package dtdinfer

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
)

// Snapshot equivalence properties over realistic corpora, exercised
// across worker counts 1..8 (run under -race by make check): a summary
// saved and loaded through the public API must infer byte-identically to
// the extraction it came from, and K shard summaries merged in order must
// reproduce single-corpus ingestion exactly.

func equivCorpus() []string {
	docs := corpus.Protein(3, 60)
	return append(docs, corpus.Mondial(4, 30)...)
}

func ingestEquiv(t *testing.T, docs []string, workers int) *Extraction {
	t.Helper()
	readers := make([]io.Reader, len(docs))
	for i, d := range docs {
		readers[i] = strings.NewReader(d)
	}
	x := NewExtraction()
	if _, err := x.AddDocumentsParallelContext(context.Background(), readers, workers, nil, dtd.FailFast); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return x
}

func corpusBytes(t *testing.T, x *Extraction) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCorpus(x, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotSaveLoadInferEquivalence(t *testing.T) {
	docs := equivCorpus()
	direct := ingestEquiv(t, docs, 1)
	// Bytes first: inference itself warms the summary (model cache,
	// cleared dirty set), which is persisted state too.
	wantBytes := corpusBytes(t, direct)
	want, err := InferDTDFromExtraction(direct, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 8; workers++ {
		x := ingestEquiv(t, docs, workers)
		data := corpusBytes(t, x)
		if !bytes.Equal(data, wantBytes) {
			t.Errorf("workers=%d: summary bytes differ from the sequential summary", workers)
		}
		loaded, err := ReadCorpus(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := InferDTDFromExtraction(loaded, IDTD, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: DTD from loaded summary differs\ngot:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
}

func TestSnapshotShardMergeEquivalence(t *testing.T) {
	docs := equivCorpus()
	direct := ingestEquiv(t, docs, 1)
	wantBytes := corpusBytes(t, direct) // before inference warms the summary
	want, err := InferDTDFromExtraction(direct, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 7} {
		// Contiguous sharding: merging the shards in order replays the
		// single-corpus document order, which the summary's first-seen
		// sequence encoding (and hence byte identity) is defined over.
		// Each shard still builds its own symbol numbering from scratch;
		// the merge re-maps them.
		shardDocs := make([][]string, k)
		per := (len(docs) + k - 1) / k
		for i, d := range docs {
			shardDocs[i/per] = append(shardDocs[i/per], d)
		}
		var merged *Extraction
		for i, sd := range shardDocs {
			shard := ingestEquiv(t, sd, 4)
			loaded, err := ReadCorpus(bytes.NewReader(corpusBytes(t, shard)))
			if err != nil {
				t.Fatalf("k=%d shard=%d: %v", k, i, err)
			}
			if merged == nil {
				merged = loaded
			} else {
				merged.MergeSummary(loaded)
			}
		}
		if got := corpusBytes(t, merged); !bytes.Equal(got, wantBytes) {
			t.Errorf("k=%d: merged summary bytes differ from single-corpus summary", k)
		}
		got, err := InferDTDFromExtraction(merged, IDTD, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("k=%d: DTD from merged shards differs\ngot:\n%s\nwant:\n%s", k, got, want)
		}
	}
}

func TestSaveLoadCorpusFiles(t *testing.T) {
	docs := equivCorpus()[:10]
	x := ingestEquiv(t, docs, 1)
	path := t.TempDir() + "/c.corpus"
	if err := SaveCorpus(x, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := corpusBytes(t, loaded), corpusBytes(t, x); !bytes.Equal(got, want) {
		t.Error("file round trip is not byte-identical")
	}
	if _, err := LoadCorpus(path + ".missing"); err == nil {
		t.Error("missing file loaded cleanly")
	}
}
