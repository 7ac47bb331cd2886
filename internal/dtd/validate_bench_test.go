package dtd_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// validateBodies merges every 8 consecutive corpus.Protein documents
// under one ProteinDatabase root, giving bodies of about 27 KB.
func validateBodies(seed int64, n int) [][]byte {
	const perBody = 8
	docs := corpus.Protein(seed, n*perBody)
	bodies := make([][]byte, n)
	for i := range bodies {
		var b bytes.Buffer
		b.WriteString("<ProteinDatabase>")
		for _, d := range docs[i*perBody : (i+1)*perBody] {
			b.WriteString(strings.TrimSuffix(strings.TrimPrefix(d, "<ProteinDatabase>"), "</ProteinDatabase>"))
		}
		b.WriteString("</ProteinDatabase>")
		bodies[i] = b.Bytes()
	}
	return bodies
}

// BenchmarkValidate times the validation layer alone: one op validates
// one merged Protein body against the DTD inferred from all the bodies.
func BenchmarkValidate(b *testing.B) {
	bodies := validateBodies(7, 16)
	x := dtd.NewExtraction()
	size := 0
	for _, body := range bodies {
		if err := x.AddDocument(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
		size += len(body)
	}
	d, _, err := x.InferDTDElementsCached(context.Background(), &dtd.CacheConfig{Key: "idtd"},
		func(_ context.Context, _ string, s *sample.Set) (*regex.Expr, *dtd.ElementOutcome, error) {
			r, err := idtd.Infer(s.Strings(), nil)
			if err != nil {
				return nil, nil, err
			}
			return r.Expr, nil, nil
		})
	if err != nil {
		b.Fatal(err)
	}
	v := dtd.NewValidator(d)
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := v.ValidateOptions(bytes.NewReader(bodies[i%len(bodies)]), nil)
		if err != nil || len(vs) != 0 {
			b.Fatalf("training body rejected: %v %v", err, vs)
		}
	}
}
