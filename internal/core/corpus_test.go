package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtdinfer/internal/dtd"
	"dtdinfer/internal/faultinject"
)

// testExtraction ingests a small two-document corpus.
func testExtraction(t *testing.T) *dtd.Extraction {
	t.Helper()
	x := dtd.NewExtraction()
	docs := []string{
		"<store><book><title>a</title><price>1</price></book></store>",
		"<store><book><title>b</title></book><book><title>c</title><price>2</price></book></store>",
	}
	for _, d := range docs {
		if err := x.AddDocumentOptions(strings.NewReader(d), nil); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	return x
}

// TestWriteCorpusAfterInferenceDeterministic: two identical runs — ingest
// two documents, infer, save — write identical bytes. The model cache
// keeps no wall-clock time, so a warm summary is as canonical as a cold
// one.
func TestWriteCorpusAfterInferenceDeterministic(t *testing.T) {
	run := func() []byte {
		x := testExtraction(t)
		if _, err := InferDTDFromExtraction(x, IDTD, nil); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCorpus(x, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run()
	for i := 1; i <= 5; i++ {
		if got := run(); !bytes.Equal(got, want) {
			t.Fatalf("run %d wrote different bytes from run 0", i)
		}
	}
}

// TestSaveCorpusDurableRename exercises the full durable-save path —
// temp file, file sync, rename, directory sync — against a fresh
// tmpdir, and checks the summary loads back equivalent.
func TestSaveCorpusDurableRename(t *testing.T) {
	x := testExtraction(t)
	path := filepath.Join(t.TempDir(), "sub", "corpus.bin")
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(x, path); err != nil {
		t.Fatalf("SaveCorpus: %v", err)
	}
	// The temp file must be gone: only the renamed target remains.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "corpus.bin" {
		t.Errorf("directory after save = %v, want exactly corpus.bin", entries)
	}
	got, err := LoadCorpus(path)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	want, _, err := InferDTDFromExtractionContext(context.Background(), x, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := InferDTDFromExtractionContext(context.Background(), got, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != want.String() {
		t.Errorf("loaded corpus infers:\n%s\nwant:\n%s", d, want)
	}
}

// TestSaveCorpusRelativePath pins the dirOf(".") branch of the
// directory sync: a bare filename must sync the working directory, not
// fail trying to open an empty path.
func TestSaveCorpusRelativePath(t *testing.T) {
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	if err := SaveCorpus(testExtraction(t), "corpus.bin"); err != nil {
		t.Fatalf("SaveCorpus(relative): %v", err)
	}
	if _, err := os.Stat("corpus.bin"); err != nil {
		t.Fatalf("saved file: %v", err)
	}
}

func TestSaveCorpusRetrySucceedsAfterTransientFailures(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("disk on fire")
	faultinject.Set("persist.write", "", faultinject.Fault{Err: boom, Times: 2})
	var retries []int
	var slept []time.Duration
	policy := &RetryPolicy{
		Attempts: 3,
		Backoff:  time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
		OnRetry:  func(attempt int, err error) { retries = append(retries, attempt) },
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := SaveCorpusRetry(testExtraction(t), path, policy); err != nil {
		t.Fatalf("SaveCorpusRetry: %v", err)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Errorf("OnRetry attempts = %v, want [1 2]", retries)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d <= 0 {
			t.Errorf("backoff %d = %v, want > 0", i, d)
		}
	}
	if _, err := LoadCorpus(path); err != nil {
		t.Errorf("summary unreadable after retried save: %v", err)
	}
}

func TestSaveCorpusRetryExhaustsAttempts(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("disk still on fire")
	faultinject.Set("persist.write", "", faultinject.Fault{Err: boom})
	attempts := 0
	policy := &RetryPolicy{
		Attempts: 3,
		Backoff:  time.Millisecond,
		Sleep:    func(time.Duration) {},
		OnRetry:  func(int, error) { attempts++ },
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	err := SaveCorpusRetry(testExtraction(t), path, policy)
	if !errors.Is(err, boom) {
		t.Fatalf("SaveCorpusRetry = %v, want the injected error", err)
	}
	if attempts != 2 {
		t.Errorf("observed %d retries, want 2 (3 attempts total)", attempts)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("target exists after exhausted retries: %v", err)
	}
}

func TestRetryPolicyBackoffCapped(t *testing.T) {
	p := RetryPolicy{Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}.resolved()
	for n := 1; n < 64; n++ {
		d := p.backoff(n)
		if d < p.MaxBackoff/2-1 && n > 3 {
			t.Errorf("backoff(%d) = %v, want >= half the cap once saturated", n, d)
		}
		if d > p.MaxBackoff+p.MaxBackoff/2 {
			t.Errorf("backoff(%d) = %v, exceeds cap+jitter %v", n, d, p.MaxBackoff+p.MaxBackoff/2)
		}
	}
}

// TestMergeCorpusFilesMatchesLoadAllPath saves K=8 disjoint shard
// summaries and checks the streaming merge (load one, fold, release) is
// byte-identical — same snapshot encoding, same inferred DTD — to the
// old path that decoded every shard up front and merged the lot.
func TestMergeCorpusFilesMatchesLoadAllPath(t *testing.T) {
	const shards = 8
	dir := t.TempDir()
	paths := make([]string, shards)
	for s := 0; s < shards; s++ {
		x := dtd.NewExtraction()
		for d := 0; d < 3; d++ {
			doc := "<store><book id=\"" + strings.Repeat("x", s+1) + "\"><title>t</title>" +
				strings.Repeat("<price>9</price>", s%3) + "</book></store>"
			if err := x.AddDocumentOptions(strings.NewReader(doc), nil); err != nil {
				t.Fatal(err)
			}
		}
		paths[s] = filepath.Join(dir, "shard"+string(rune('0'+s))+".corpus")
		if err := SaveCorpus(x, paths[s]); err != nil {
			t.Fatal(err)
		}
	}

	streamed, err := MergeCorpusFiles(paths)
	if err != nil {
		t.Fatalf("MergeCorpusFiles: %v", err)
	}

	// Old path: decode all K first, then merge in order.
	loaded := make([]*dtd.Extraction, shards)
	for i, p := range paths {
		if loaded[i], err = LoadCorpus(p); err != nil {
			t.Fatal(err)
		}
	}
	all := loaded[0]
	for _, shard := range loaded[1:] {
		all.MergeSummary(shard)
	}

	var sb, ab bytes.Buffer
	if err := WriteCorpus(streamed, &sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteCorpus(all, &ab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), ab.Bytes()) {
		t.Error("streaming merge snapshot differs from load-all merge")
	}
	ds, _, err := InferDTDFromExtractionContext(context.Background(), streamed, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	da, _, err := InferDTDFromExtractionContext(context.Background(), all, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.String() != da.String() {
		t.Errorf("streaming merge DTD = %q, want %q", ds, da)
	}
}

func TestMergeCorpusFilesErrors(t *testing.T) {
	if _, err := MergeCorpusFiles(nil); err == nil {
		t.Error("empty path list did not error")
	}
	if _, err := MergeCorpusFiles([]string{filepath.Join(t.TempDir(), "missing.corpus")}); err == nil {
		t.Error("missing file did not error")
	}
}
