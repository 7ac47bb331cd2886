package xmltok_test

import (
	"io"
	"regexp"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/xmltok"
)

// BenchmarkTokenizer measures the tokenizer alone, Reset and Next over
// every document, in MB/s of input. "protein" is corpus.Protein as
// generated: ASCII names and plain text. "unicode" is the same documents
// with every element renamed to start with U+00F1 and every text run
// carrying Latin-1 and three-byte UTF-8 characters, so names go through
// the range tables and text through UTF-8 validation. "escaped" keeps the
// names but gives every text run an entity and a character reference,
// puts CRLF line endings between tags and makes the <sequence> runs 1, 4
// and 12 KiB long in turn, so that some of them cross a refill of the
// 8 KiB read buffer and some are longer than it: its text takes the
// copying path that the others mostly avoid.
//
// The package is external because internal/corpus imports dtd, which
// imports xmltok.
func BenchmarkTokenizer(b *testing.B) {
	docs := corpus.Protein(1, 400)
	tag := regexp.MustCompile(`<(/?)([A-Za-z])`)
	text := regexp.MustCompile(`>([^<]+)<`)
	sequence := regexp.MustCompile(`<sequence>[^<]*</sequence>`)
	var residues []string
	for _, kib := range []int{1, 4, 12} {
		residues = append(residues, "<sequence>"+strings.Repeat("MKVLAAGIVGLLLAQSWSSA", kib<<10/20)+"</sequence>")
	}
	nonASCII := make([]string, len(docs))
	escaped := make([]string, len(docs))
	for i, d := range docs {
		nonASCII[i] = text.ReplaceAllString(tag.ReplaceAllString(d, "<${1}ñ$2"), ">$1 crème brûlée €<")
		d = text.ReplaceAllString(d, ">$1 &amp; &#x3b1;<")
		d = sequence.ReplaceAllLiteralString(d, residues[i%len(residues)])
		escaped[i] = strings.ReplaceAll(d, "><", ">\r\n<")
	}
	for _, bc := range []struct {
		name string
		docs []string
	}{{"protein", docs}, {"unicode", nonASCII}, {"escaped", escaped}} {
		b.Run(bc.name, func(b *testing.B) {
			var size int64
			readers := make([]*strings.Reader, len(bc.docs))
			for i, d := range bc.docs {
				size += int64(len(d))
				readers[i] = strings.NewReader(d)
			}
			tok := xmltok.NewTokenizer()
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, r := range readers {
					r.Reset(bc.docs[j])
					tok.Reset(r)
					for {
						if _, err := tok.Next(); err != nil {
							if err != io.EOF {
								b.Fatal(err)
							}
							break
						}
					}
				}
			}
		})
	}
}
