package dtd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// FuzzParse exercises the DTD parser; run with -fuzz=FuzzParse. As a unit
// test it replays the seeds. Invariants: no panic; a successfully parsed
// DTD serializes and re-parses to an equal DTD.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`<!DOCTYPE r [<!ELEMENT r (a,b?)> <!ELEMENT a EMPTY> <!ELEMENT b (#PCDATA)>]>`,
		`<!ELEMENT p (#PCDATA|b|i)*>`,
		`<!ELEMENT a ANY><!ATTLIST a x CDATA #REQUIRED y (u|v) "u">`,
		`<!ELEMENT z (q{2,4},w*)>`,
		`<!ELEMENT`,
		`<!ATTLIST a`,
		`<!DOCTYPE [`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Parse(input)
		if err != nil {
			return
		}
		d2, err := Parse(d.String())
		if err != nil {
			t.Fatalf("serialized DTD does not re-parse: %v\nfrom input %q\n%s", err, input, d)
		}
		if !d.Equal(d2) {
			t.Fatalf("round trip changed the DTD for %q:\n%s\nvs\n%s", input, d, d2)
		}
	})
}

// FuzzExtraction feeds arbitrary bytes to the XML extraction; it must
// never panic, and on success the sequences must be consistent.
func FuzzExtraction(f *testing.F) {
	f.Add(`<a><b/><b>t</b></a>`)
	f.Add(`<a>`)
	f.Add(`not xml at all`)
	f.Add(`<a xmlns:x="u"><x:b/></a>`)
	f.Fuzz(func(t *testing.T, input string) {
		x := NewExtraction()
		if err := x.AddDocument(strings.NewReader(input)); err != nil {
			return
		}
		for name, seqs := range x.Sequences {
			if name == "" {
				t.Fatal("empty element name recorded")
			}
			_ = seqs
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder; run
// with -fuzz=FuzzSnapshotDecode. In the re-sealed mode the CRC-32C
// trailer is recomputed over the mutated body first, so a mutation meets
// the decoder's content validation instead of failing at the checksum.
// Invariants: no panic on any input, and any stream that decodes cleanly
// re-encodes (the decoder's canonical-order enforcement makes
// decode∘encode well-defined) to a fixed point: for e = encode(decode(s)),
// encode(decode(e)) == e.
func FuzzSnapshotDecode(f *testing.F) {
	valid := func(docs ...string) []byte {
		x := NewExtraction()
		for _, doc := range docs {
			if err := x.AddDocument(strings.NewReader(doc)); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := x.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := valid()
	full := valid(
		`<db><rec id="a1" kind="x"><name>n1</name><tag/></rec></db>`,
		`<db><rec id="a2" kind="y"><name>n2</name></rec><note>t <b>b</b></note></db>`,
	)
	for _, reseal := range []bool{false, true} {
		f.Add(empty, reseal)
		f.Add(full, reseal)
		f.Add(full[:len(full)/2], reseal)
		f.Add([]byte("DTDS"), reseal)
		f.Add([]byte("DTDS\x01"), reseal)
		f.Add([]byte{}, reseal)
		f.Add([]byte("not a snapshot at all, just bytes"), reseal)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	encode := func(t *testing.T, x *Extraction) []byte {
		var buf bytes.Buffer
		if err := x.WriteSnapshot(&buf); err != nil {
			t.Fatalf("accepted stream does not re-encode: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 4 {
			data = bytes.Clone(data)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, castagnoli))
		}
		x, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		e := encode(t, x)
		x2, err := ReadSnapshot(bytes.NewReader(e))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if e2 := encode(t, x2); !bytes.Equal(e2, e) {
			t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", len(e), len(e2))
		}
	})
}
