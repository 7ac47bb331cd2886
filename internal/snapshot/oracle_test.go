package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
)

// The oracle is the streaming codec the in-memory one replaced, kept
// verbatim apart from its names: both halves run through bufio, keep a
// running CRC-32C field by field, read varints one byte at a time through
// io.ByteReader and read long strings chunk by chunk. FuzzCodecOracle
// holds Writer and Reader to it.

// readChunk bounds how much a lying length prefix can make the
// reader allocate before truncation is detected: string payloads are
// read and grown chunk by chunk, so memory tracks bytes actually
// present in the stream.
const readChunk = 32 << 10

// oracleWriter encodes the framing format onto an io.Writer. Create with
// newOracleWriter, emit fields, then Close to append the checksum. Errors are
// sticky; only the first is reported.
type oracleWriter struct {
	bw      *bufio.Writer
	crc     uint32
	err     error
	scratch [binary.MaxVarintLen64]byte
}

// newOracleWriter starts a stream: the magic tag and format version are
// written (and checksummed) immediately.
func newOracleWriter(w io.Writer, magic string, version byte) *oracleWriter {
	sw := &oracleWriter{bw: bufio.NewWriter(w)}
	sw.raw([]byte(magic))
	sw.Byte(version)
	return sw
}

func (w *oracleWriter) raw(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, b)
	_, w.err = w.bw.Write(b)
}

// Byte writes one raw byte.
func (w *oracleWriter) Byte(b byte) {
	w.scratch[0] = b
	w.raw(w.scratch[:1])
}

// Bool writes a bool as one byte (0 or 1).
func (w *oracleWriter) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint writes an unsigned varint.
func (w *oracleWriter) Uvarint(u uint64) {
	n := binary.PutUvarint(w.scratch[:], u)
	w.raw(w.scratch[:n])
}

// Varint writes a signed (zig-zag) varint.
func (w *oracleWriter) Varint(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.raw(w.scratch[:n])
}

// Len writes a non-negative count as an unsigned varint.
func (w *oracleWriter) Len(n int) { w.Uvarint(uint64(n)) }

// U64 writes a fixed-width little-endian 64-bit word (fingerprints,
// whose value distribution would waste varint bytes).
func (w *oracleWriter) U64(u uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], u)
	w.raw(w.scratch[:8])
}

// String writes a length-prefixed string. Strings longer than
// MaxStringLen fail the writer — every stream the Writer produces must
// be acceptable to the Reader.
func (w *oracleWriter) String(s string) {
	if len(s) > MaxStringLen {
		if w.err == nil {
			w.err = fmt.Errorf("snapshot: string of %d bytes exceeds limit %d", len(s), MaxStringLen)
		}
		return
	}
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, []byte(s))
	_, w.err = w.bw.WriteString(s)
}

// Err returns the first error encountered, if any.
func (w *oracleWriter) Err() error { return w.err }

// Close appends the CRC-32C of everything written (the checksum itself
// excluded) and flushes. The Writer must not be used afterwards.
func (w *oracleWriter) Close() error {
	if w.err == nil {
		binary.LittleEndian.PutUint32(w.scratch[:4], w.crc)
		_, w.err = w.bw.Write(w.scratch[:4])
	}
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// oracleReader decodes the framing format from untrusted bytes. Create with
// newOracleReader, read fields, then Close to verify the checksum and the end
// of stream. Every failure wraps ErrCorrupt; errors are sticky.
type oracleReader struct {
	br      *bufio.Reader
	crc     uint32
	err     error
	version byte
	scratch [8]byte
}

// newOracleReader starts decoding a stream, validating the magic tag. The
// format version is exposed via Version for the caller to dispatch on.
func newOracleReader(r io.Reader, magic string) (*oracleReader, error) {
	sr := &oracleReader{br: bufio.NewReader(r)}
	got := make([]byte, len(magic)+1)
	sr.raw(got)
	if sr.err != nil {
		return nil, sr.err
	}
	if string(got[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, got[:len(magic)], magic)
	}
	sr.version = got[len(magic)]
	return sr, nil
}

// Version returns the format version byte following the magic tag.
func (r *oracleReader) Version() byte { return r.version }

func (r *oracleReader) raw(b []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.fail("unexpected end of stream")
		return
	}
	r.crc = crc32.Update(r.crc, castagnoli, b)
}

// fail records the first decoding error, wrapping ErrCorrupt.
func (r *oracleReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Fail lets a caller inject a semantic validation failure (an in-range
// wire value that is nonsense for the record being decoded) into the
// sticky error, so framing and semantic errors surface uniformly.
func (r *oracleReader) Fail(format string, args ...any) { r.fail(format, args...) }

// ReadByte implements io.ByteReader over the checksummed stream (it is
// what binary.ReadUvarint consumes). On failure it both returns the
// error and makes it sticky.
func (r *oracleReader) ReadByte() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	b, err := r.br.ReadByte()
	if err != nil {
		r.fail("unexpected end of stream")
		return 0, r.err
	}
	r.scratch[0] = b
	r.crc = crc32.Update(r.crc, castagnoli, r.scratch[:1])
	return b, nil
}

// Byte reads one raw byte.
func (r *oracleReader) Byte() byte {
	b, _ := r.ReadByte()
	return b
}

// Bool reads a bool, rejecting any encoding other than 0 or 1 so every
// stream has exactly one byte representation.
func (r *oracleReader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.fail("invalid bool encoding")
		}
		return false
	}
}

// Uvarint reads an unsigned varint.
func (r *oracleReader) Uvarint() uint64 {
	u, err := binary.ReadUvarint(r)
	if err != nil && r.err == nil {
		r.fail("malformed varint")
	}
	if r.err != nil {
		return 0
	}
	return u
}

// Varint reads a signed (zig-zag) varint.
func (r *oracleReader) Varint() int64 {
	v, err := binary.ReadVarint(r)
	if err != nil && r.err == nil {
		r.fail("malformed varint")
	}
	if r.err != nil {
		return 0
	}
	return v
}

// Int reads an unsigned varint that must fit a non-negative int —
// counts and multiplicities.
func (r *oracleReader) Int() int {
	u := r.Uvarint()
	if u > math.MaxInt64 {
		r.fail("count %d out of range", u)
		return 0
	}
	return int(u)
}

// U64 reads a fixed-width little-endian 64-bit word.
func (r *oracleReader) U64() uint64 {
	r.raw(r.scratch[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.scratch[:8])
}

// String reads a length-prefixed string. The length is validated
// against MaxStringLen and the payload is read chunk by chunk, so a
// hostile prefix can neither trigger a giant allocation nor make memory
// use exceed the bytes actually present in the stream.
func (r *oracleReader) String() string {
	n := r.Uvarint()
	if n > MaxStringLen {
		r.fail("string of %d bytes exceeds limit %d", n, MaxStringLen)
	}
	if r.err != nil || n == 0 {
		return ""
	}
	if n <= readChunk {
		b := make([]byte, n)
		r.raw(b)
		if r.err != nil {
			return ""
		}
		return string(b)
	}
	b := make([]byte, 0, readChunk)
	for left := int(n); left > 0; {
		c := min(left, readChunk)
		start := len(b)
		b = append(b, make([]byte, c)...)
		r.raw(b[start:])
		if r.err != nil {
			return ""
		}
		left -= c
	}
	return string(b)
}

// Err returns the first error encountered, if any.
func (r *oracleReader) Err() error { return r.err }

// Close reads the trailing CRC-32C, verifies it against everything
// consumed so far, and requires the stream to end exactly there. It
// returns the sticky error, so a decoder's single error check can be
// the Close result.
func (r *oracleReader) Close() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc
	if _, err := io.ReadFull(r.br, r.scratch[:4]); err != nil {
		r.fail("missing checksum")
		return r.err
	}
	if got := binary.LittleEndian.Uint32(r.scratch[:4]); got != want {
		r.fail("checksum mismatch (stream %08x, computed %08x)", got, want)
		return r.err
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		r.fail("trailing data after checksum")
		return r.err
	}
	return nil
}

// field is one step of a codec script: the primitive op and, for
// writing, its value.
type field struct {
	op byte
	u  uint64
	s  string
}

const (
	opByte = iota
	opBool
	opUvarint
	opVarint
	opInt
	opU64
	opString
	numOps
)

// script derives a field sequence from fuzz input: an op byte, then the
// op's value. Integers take a length byte and that many value bytes, so
// every varint width occurs; a string takes a length byte and that many
// bytes, except that length 255 stands for a string longer than the
// oracle's read chunk.
func script(data []byte) []field {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var out []field
	for len(data) > 0 {
		f := field{op: next() % numOps}
		switch f.op {
		case opByte, opBool:
			f.u = uint64(next())
			if f.op == opBool {
				f.u &= 1
			}
		case opUvarint, opVarint, opInt, opU64:
			for i, n := 0, int(next()%9); i < n; i++ {
				f.u |= uint64(next()) << (8 * i)
			}
		case opString:
			n := int(next())
			if n == 255 {
				f.s = strings.Repeat("s", readChunk+int(next()))
			} else {
				f.s = string(data[:min(n, len(data))])
				data = data[len(f.s):]
			}
		}
		out = append(out, f)
	}
	return out
}

// codecWriter and codecReader are the halves the two codecs share, so
// one script drives both.
type codecWriter interface {
	Byte(byte)
	Bool(bool)
	Uvarint(uint64)
	Varint(int64)
	Len(int)
	U64(uint64)
	String(string)
	Close() error
}

type codecReader interface {
	Byte() byte
	Bool() bool
	Uvarint() uint64
	Varint() int64
	Int() int
	U64() uint64
	String() string
	Err() error
	Close() error
}

func writeScript(w codecWriter, fields []field) error {
	for _, f := range fields {
		switch f.op {
		case opByte:
			w.Byte(byte(f.u))
		case opBool:
			w.Bool(f.u == 1)
		case opUvarint:
			w.Uvarint(f.u)
		case opVarint:
			w.Varint(int64(f.u))
		case opInt:
			// Len's wire form is Uvarint's; values past MaxInt64 test
			// Int's range check.
			w.Uvarint(f.u)
		case opU64:
			w.U64(f.u)
		case opString:
			w.String(f.s)
		}
	}
	return w.Close()
}

// readField runs one op and returns its value for comparison.
func readField(r codecReader, op byte) any {
	switch op {
	case opByte:
		return r.Byte()
	case opBool:
		return r.Bool()
	case opUvarint:
		return r.Uvarint()
	case opVarint:
		return r.Varint()
	case opInt:
		return r.Int()
	case opU64:
		return r.U64()
	default:
		return r.String()
	}
}

// sameFailure reports whether two errors agree: both nil, or both
// wrapping ErrCorrupt with the same message.
func sameFailure(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return errors.Is(a, ErrCorrupt) && errors.Is(b, ErrCorrupt) && a.Error() == b.Error()
}

// FuzzCodecOracle holds the codec to the streaming oracle. One script,
// derived from the input, is written by both writers, which must produce
// identical bytes. Both readers then run the script over the valid
// stream, a truncation of it, a bit-flipped copy and the raw input
// behind a valid header. Step by step they must return the same values
// and fail at the same step with the same ErrCorrupt error, and they must
// agree at Close.
func FuzzCodecOracle(f *testing.F) {
	f.Add([]byte{opUvarint, 1, 7, opString, 3, 'a', 'b', 'c', opBool, 1, opU64, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{opString, 255, 9, opVarint, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{opInt, 8, 0, 0, 0, 0, 0, 0, 0, 0x80, opByte, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fields := script(data)
		var got, want bytes.Buffer
		if err := writeScript(NewWriter(&got, "TEST", 1), fields); err != nil {
			t.Fatalf("Writer: %v", err)
		}
		if err := writeScript(newOracleWriter(&want, "TEST", 1), fields); err != nil {
			t.Fatalf("oracle writer: %v", err)
		}
		// The valid stream decodes cleanly unless the script writes a
		// count past MaxInt64 for Int to reject.
		validOK := true
		for _, f := range fields {
			validOK = validOK && (f.op != opInt || f.u <= math.MaxInt64)
		}
		valid := got.Bytes()
		if !bytes.Equal(valid, want.Bytes()) {
			t.Fatalf("writers differ:\n got %x\nwant %x", valid, want.Bytes())
		}
		pos := 0
		for _, b := range data {
			pos = pos*31 + int(b)
		}
		pos &= math.MaxInt32
		flipped := bytes.Clone(valid)
		flipped[pos%len(flipped)] ^= 1 << (pos % 8)
		streams := map[string][]byte{
			"valid":     valid,
			"truncated": valid[:pos%len(valid)],
			"flipped":   flipped,
			"arbitrary": append([]byte("TEST\x01"), data...),
		}
		for name, stream := range streams {
			r, err := NewReader(bytes.NewReader(stream), "TEST")
			o, oerr := newOracleReader(bytes.NewReader(stream), "TEST")
			if !sameFailure(err, oerr) {
				t.Fatalf("%s: NewReader err %v, oracle %v", name, err, oerr)
			}
			if err != nil {
				continue
			}
			if r.Version() != o.Version() {
				t.Fatalf("%s: version %d, oracle %d", name, r.Version(), o.Version())
			}
			for i, f := range fields {
				if g, w := readField(r, f.op), readField(o, f.op); g != w {
					t.Fatalf("%s: field %d (op %d) = %v, oracle %v", name, i, f.op, g, w)
				}
				if !sameFailure(r.Err(), o.Err()) {
					t.Fatalf("%s: field %d (op %d): err %v, oracle %v", name, i, f.op, r.Err(), o.Err())
				}
			}
			if err, oerr := r.Close(), o.Close(); !sameFailure(err, oerr) {
				t.Fatalf("%s: Close err %v, oracle %v", name, err, oerr)
			}
			if name == "valid" && (r.Err() == nil) != validOK {
				t.Fatalf("valid stream: err %v", r.Err())
			}
		}
	})
}

// TestLenBoundsCountsByBytesLeft pins Len: a count its records could
// fill passes, one more fails before anything is read for them.
func TestLenBoundsCountsByBytesLeft(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "TEST", 1)
	w.Len(3)
	w.U64(1)
	w.U64(2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// 16 bytes of records and the 4-byte checksum follow the count.
	for _, tc := range []struct {
		minSize int
		ok      bool
	}{{1, true}, {6, true}, {7, false}, {8, false}} {
		r, err := NewReader(bytes.NewReader(buf.Bytes()), "TEST")
		if err != nil {
			t.Fatal(err)
		}
		n := r.Len(tc.minSize)
		if tc.ok != (r.Err() == nil) || (tc.ok && n != 3) {
			t.Errorf("Len(%d) = %d, err %v; want ok=%v", tc.minSize, n, r.Err(), tc.ok)
		}
		if !tc.ok && !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("Len(%d): err %v, want ErrCorrupt", tc.minSize, r.Err())
		}
	}
}
