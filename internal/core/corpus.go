package core

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"dtdinfer/internal/dtd"
	"dtdinfer/internal/faultinject"
)

// Durable corpus summaries. A corpus summary is everything inference
// needs and nothing it does not: the counted sequence samples, text and
// attribute statistics, root counts, and the incremental-inference state
// (memoized content models, memoized <!ATTLIST> declarations).
// The documents themselves are gone — a summary of a multi-gigabyte
// corpus is typically kilobytes — yet inference over a loaded summary is
// byte-identical to inference over the original extraction, and a warm
// summary replays its cached models without running any engine.
//
// Summaries merge: extractions built from disjoint document shards (on
// different machines, in different processes) can each be saved, then
// combined with dtd.(*Extraction).MergeSummary into a summary equivalent
// to single-machine ingestion. cmd/dtdmerge is the CLI face of that
// map-reduce shape.

// SaveCorpus writes the extraction's corpus summary to path atomically
// and durably: the snapshot is written to a temporary file in the same
// directory, synced, renamed into place, and then the containing
// directory is synced too. The file sync alone makes the *content*
// durable; only the directory sync makes the *rename* durable — without
// it a power loss after SaveCorpus returns can legally resurface the old
// file (or no file) under the target name.
func SaveCorpus(x *dtd.Extraction, path string) error {
	if err := faultinject.Fire("persist.write", path); err != nil {
		return fmt.Errorf("core: saving corpus to %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(dirOf(path), ".corpus-*.tmp")
	if err != nil {
		return fmt.Errorf("core: saving corpus: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := x.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("core: saving corpus to %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: saving corpus to %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: saving corpus to %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: saving corpus: %w", err)
	}
	if err := syncDir(dirOf(path)); err != nil {
		return fmt.Errorf("core: saving corpus to %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}

// RetryPolicy shapes the retry loop around a failing persist: how many
// attempts in total, and how long to back off between them. Backoff is
// exponential from Backoff up to MaxBackoff, with ±50% jitter so a fleet
// of tenants whose persists fail together (a full disk, a flaky mount)
// does not retry in lockstep. The zero value means DefaultRetryPolicy.
type RetryPolicy struct {
	// Attempts is the total number of tries (first attempt included);
	// 0 means 3. 1 disables retries.
	Attempts int
	// Backoff is the delay before the second attempt; 0 means 50ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 2s.
	MaxBackoff time.Duration
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)
	// OnRetry observes each failed attempt before the backoff sleep
	// (attempt numbers from 1). Metrics counters hook in here.
	OnRetry func(attempt int, err error)
}

// DefaultRetryPolicy is the policy a zero RetryPolicy resolves to.
var DefaultRetryPolicy = RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}

func (p RetryPolicy) resolved() RetryPolicy {
	if p.Attempts == 0 {
		p.Attempts = DefaultRetryPolicy.Attempts
	}
	if p.Backoff == 0 {
		p.Backoff = DefaultRetryPolicy.Backoff
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// backoff returns the jittered delay before attempt n+1 (n from 1).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.Backoff << (n - 1)
	if d > p.MaxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxBackoff
	}
	// ±50% jitter; rand is fine here — this is desynchronization, not
	// cryptography, and tests assert on attempt counts, not delays.
	return d/2 + time.Duration(rand.Int63n(int64(d)+1))
}

// SaveCorpusRetry is SaveCorpus under a retry policy: transient write
// failures (the fault injection point "persist.write" included) are
// retried with jittered exponential backoff until an attempt succeeds or
// the policy's attempts are exhausted, in which case the last error is
// returned. This is the one persist loop shared by the schema service
// daemon's periodic auto-persist and Incremental's refresh-time
// auto-persist.
func SaveCorpusRetry(x *dtd.Extraction, path string, policy *RetryPolicy) error {
	p := DefaultRetryPolicy
	if policy != nil {
		p = *policy
	}
	p = p.resolved()
	var err error
	for attempt := 1; ; attempt++ {
		err = SaveCorpus(x, path)
		if err == nil || attempt >= p.Attempts {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		p.Sleep(p.backoff(attempt))
	}
}

// LoadCorpus reads a corpus summary previously written by SaveCorpus
// (or WriteCorpus). The bytes are treated as untrusted: framing, field
// ranges, canonical ordering and content fingerprints are all validated,
// and corruption yields an error, never a panic. Loading costs O(size of
// the summary) — independent of the size of the corpus it summarizes.
// A file that is not a summary is rejected on its first five bytes; a
// summary is read whole and decoded from memory.
func LoadCorpus(path string) (*dtd.Extraction, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading corpus: %w", err)
	}
	defer f.Close()
	x, err := dtd.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("core: loading corpus from %s: %w", path, err)
	}
	return x, nil
}

// WriteCorpus streams the extraction's corpus summary to w — the
// io.Writer form of SaveCorpus for callers that own the destination
// (sockets, object stores, pipelines).
func WriteCorpus(x *dtd.Extraction, w io.Writer) error {
	if err := x.WriteSnapshot(w); err != nil {
		return fmt.Errorf("core: writing corpus: %w", err)
	}
	return nil
}

// MergeCorpusFiles loads the named corpus summaries and merges them in
// argument order, streaming: each summary is decoded, folded into the
// accumulator, and released before the next is read, so peak memory is
// the accumulator plus one decoded shard — never all K shards at once.
// Summary merge is deterministic, so the result is byte-identical to
// decoding every shard up front and merging them in the same order (and,
// transitively, to single-machine ingestion of all the documents).
func MergeCorpusFiles(paths []string) (*dtd.Extraction, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: merging corpus files: no summaries named")
	}
	x, err := LoadCorpus(paths[0])
	if err != nil {
		return nil, err
	}
	for _, name := range paths[1:] {
		shard, err := LoadCorpus(name)
		if err != nil {
			return nil, err
		}
		x.MergeSummary(shard)
		// shard is dead here: MergeSummary copies the statistics and
		// retains only adopted cache entries, so the decoded shard is
		// collectable before the next file is opened.
	}
	return x, nil
}

// ReadCorpus is the io.Reader form of LoadCorpus. It reads all of r to
// EOF and holds it in memory while decoding (see dtd.ReadSnapshot).
func ReadCorpus(r io.Reader) (*dtd.Extraction, error) {
	x, err := dtd.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading corpus: %w", err)
	}
	return x, nil
}
