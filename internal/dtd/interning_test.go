package dtd

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dtdinfer/internal/sample"
)

// genInternCorpus builds a corpus engineered to make symbol interning
// order observable and fragile: every document introduces one fresh
// element name (so corpus-level first-sight order tracks document order
// exactly), mixes it with names from earlier documents, and occasionally
// balloons in size so byte-weighted shard boundaries move around as the
// worker count changes.
func genInternCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var pool []string
	docs := make([]string, n)
	for i := range docs {
		fresh := fmt.Sprintf("n%03d", i)
		pool = append(pool, fresh)
		var b strings.Builder
		b.WriteString("<root>")
		k := 1 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			k += 40 // occasional giant document skews shard weights
		}
		for j := 0; j < k; j++ {
			el := pool[rng.Intn(len(pool))]
			if j == 0 {
				el = fresh
			}
			fmt.Fprintf(&b, "<%s><%s/></%s>", el, pool[rng.Intn(len(pool))], el)
		}
		b.WriteString("</root>")
		docs[i] = b.String()
	}
	return docs
}

// symbolTable returns a sample's dense ID assignment as the slice of
// names in ID order.
func symbolTable(s *sample.Set) []string {
	out := make([]string, s.NumSymbols())
	for i := range out {
		out[i] = s.Name(i)
	}
	return out
}

// TestParallelInternIDsIdenticalAcrossWorkerCounts pins the invariant the
// two-table interning design exists to preserve: every element's dense
// symbol IDs come out identical to sequential ingestion no matter how
// many workers ran or where the shard boundaries fell, against both
// sequential references (AddDocs and the encoding/xml oracle), checking
// both the ID assignment explicitly and the whole extraction under
// DeepEqual. Run under the race detector (make race does, at -cpu 1,4),
// this also races the worker-local tables against each other.
func TestParallelInternIDsIdenticalAcrossWorkerCounts(t *testing.T) {
	docs := genInternCorpus(99, 120)
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			seq := NewExtraction()
			if _, err := ref.add(seq, docList(docs), nil, SkipAndRecord); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 5, 8, 16} {
				par := NewExtraction()
				if _, err := par.AddDocsParallel(docList(docs), workers, nil, SkipAndRecord); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for name, want := range seq.Sequences {
					got := par.Sequences[name]
					if got == nil {
						t.Fatalf("workers=%d: element %s missing", workers, name)
					}
					if !reflect.DeepEqual(symbolTable(got), symbolTable(want)) {
						t.Errorf("workers=%d: element %s interned %v, want %v",
							workers, name, symbolTable(got), symbolTable(want))
					}
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("workers=%d: extraction differs from sequential", workers)
				}
			}
		})
	}
}

// textCorpus yields n documents each contributing one text sample under
// element e (in document order) plus a text-free sibling.
func textCorpus(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf("<r><e>t%03d</e><q/></r>", i)
	}
	return docs
}

// TestTextOverflowFlag pins the truncation flag semantics of ingestion
// and of its oracle: past the per-element cap the kept samples are the first
// maxTextSamples in document order, the element is flagged, unaffected
// elements are not, and the batch report surfaces the count.
func TestTextOverflowFlag(t *testing.T) {
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			x := NewExtraction()
			report, err := ref.add(x, docList(textCorpus(maxTextSamples+30)), nil, SkipAndRecord)
			if err != nil {
				t.Fatal(err)
			}
			if !x.TextOverflow["e"] {
				t.Error("TextOverflow[e] not set past the cap")
			}
			if len(x.TextOverflow) != 1 {
				t.Errorf("TextOverflow = %v, want only e", x.TextOverflow)
			}
			if got := x.TextSamples["e"]; len(got) != maxTextSamples || got[0] != "t000" || got[maxTextSamples-1] != fmt.Sprintf("t%03d", maxTextSamples-1) {
				t.Errorf("samples = %d entries [%s..%s], want first %d in order",
					len(got), got[0], got[len(got)-1], maxTextSamples)
			}
			if report.TextOverflows != 1 {
				t.Errorf("report.TextOverflows = %d, want 1", report.TextOverflows)
			}
			if !strings.Contains(report.String(), "truncated text samples") {
				t.Errorf("report.String() = %q, want truncation mention", report.String())
			}

			// Exactly at the cap: complete, so no flag.
			atCap := NewExtraction()
			report, err = ref.add(atCap, docList(textCorpus(maxTextSamples)), nil, SkipAndRecord)
			if err != nil {
				t.Fatal(err)
			}
			if len(atCap.TextOverflow) != 0 || report.TextOverflows != 0 {
				t.Errorf("at-cap: TextOverflow = %v, report = %d, want none",
					atCap.TextOverflow, report.TextOverflows)
			}
		})
	}
}

// TestTextOverflowParallelMatchesSequential checks the flag survives the
// sharded path bit-for-bit: same flags, same kept samples, same report.
func TestTextOverflowParallelMatchesSequential(t *testing.T) {
	docs := textCorpus(maxTextSamples + 41)
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			seq := NewExtraction()
			seqReport, err := ref.add(seq, docList(docs), nil, SkipAndRecord)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				par := NewExtraction()
				parReport, err := par.AddDocsParallel(docList(docs), workers, nil, SkipAndRecord)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("workers=%d: extraction differs from sequential", workers)
				}
				if parReport.TextOverflows != seqReport.TextOverflows {
					t.Errorf("workers=%d: report.TextOverflows = %d, want %d",
						workers, parReport.TextOverflows, seqReport.TextOverflows)
				}
			}
		})
	}
}

// TestMergeSetsTextOverflowOnTruncation pins that Merge records the flag
// when the destination's cap truncates the source's samples, and
// propagates an already-set flag.
func TestMergeSetsTextOverflowOnTruncation(t *testing.T) {
	a, b := NewExtraction(), NewExtraction()
	for i := 0; i < 60; i++ {
		a.TextSamples["e"] = append(a.TextSamples["e"], "a")
		b.TextSamples["e"] = append(b.TextSamples["e"], "b")
	}
	a.Merge(b)
	if len(a.TextSamples["e"]) != maxTextSamples {
		t.Errorf("samples = %d, want cap %d", len(a.TextSamples["e"]), maxTextSamples)
	}
	if !a.TextOverflow["e"] {
		t.Error("TextOverflow[e] not set by merge truncation")
	}

	c, d := NewExtraction(), NewExtraction()
	d.TextSamples["e"] = []string{"x"}
	d.TextOverflow["e"] = true
	c.Merge(d)
	if !c.TextOverflow["e"] {
		t.Error("TextOverflow[e] not propagated by merge")
	}
}
