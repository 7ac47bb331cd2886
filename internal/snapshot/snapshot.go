// Package snapshot provides the framing primitives of the durable
// corpus-summary wire format: a magic-tagged, versioned, CRC-trailed
// byte stream of unsigned varints, signed varints, fixed 64-bit words
// and length-prefixed strings (DESIGN §11 specifies the field layout the
// dtd layer builds on top).
//
// The two halves are deliberately asymmetric in attitude. The Writer
// trusts its caller — it serializes whatever it is handed and only
// reports I/O failures. It appends fields to a buffer of its own and
// checksums and writes the buffer whenever it fills, then the rest and
// the CRC-32C in Close.
//
// The Reader trusts nothing: it is fed attacker-controlled bytes, so
// every primitive validates before it allocates and every failure mode
// is a returned error wrapping ErrCorrupt — never a panic. It decodes
// from memory: NewReader reads the magic tag and the version byte, and
// the first field read takes in the rest of the stream, which Close
// requires to end at the checksum anyway. Fields then decode in place
// from that byte slice. A string's length, and any count read with Len,
// is checked against the bytes left, so a lying prefix fails before
// anything is allocated for it. Close computes the CRC-32C of the
// consumed bytes in one call, verifies it and requires the stream to end
// there.
//
// Errors are sticky: after the first failure every subsequent call is a
// no-op returning zero values, so decoders can be written as straight-
// line field reads with a single Err check per record.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// ErrCorrupt matches (with errors.Is) every decoding failure: bad
// magic, truncation, checksum mismatch, malformed varints, out-of-range
// values, trailing garbage.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated data")

const (
	// MaxStringLen caps one length-prefixed string (64 MiB). Legitimate
	// snapshots hold element names, attribute values and capped text
	// samples — nothing within orders of magnitude of this — while the
	// cap keeps a hostile length prefix from being mistaken for a
	// multi-exabyte allocation request.
	MaxStringLen = 64 << 20
	// writeChunk is the buffered size at which the Writer checksums and
	// writes what it holds.
	writeChunk = 32 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer encodes the framing format onto an io.Writer. Create with
// NewWriter, emit fields, then Close to append the checksum. Errors are
// sticky; only the first is reported.
type Writer struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

// NewWriter starts a stream: the magic tag and format version are the
// first bytes buffered (and checksummed).
func NewWriter(w io.Writer, magic string, version byte) *Writer {
	sw := &Writer{w: w, buf: make([]byte, 0, writeChunk)}
	sw.buf = append(append(sw.buf, magic...), version)
	return sw
}

// spill checksums and writes the buffer once it holds writeChunk bytes.
func (w *Writer) spill() {
	if len(w.buf) < writeChunk {
		return
	}
	if w.err == nil {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf)
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) {
	w.buf = append(w.buf, b)
	w.spill()
}

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
	w.buf = binary.AppendUvarint(w.buf, u)
	w.spill()
}

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
	w.spill()
}

// Len writes a non-negative count as an unsigned varint.
func (w *Writer) Len(n int) { w.Uvarint(uint64(n)) }

// U64 writes a fixed-width little-endian 64-bit word (fingerprints,
// whose value distribution would waste varint bytes).
func (w *Writer) U64(u uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, u)
	w.spill()
}

// String writes a length-prefixed string. Strings longer than
// MaxStringLen fail the writer — every stream the Writer produces must
// be acceptable to the Reader.
func (w *Writer) String(s string) {
	if len(s) > MaxStringLen {
		if w.err == nil {
			w.err = fmt.Errorf("snapshot: string of %d bytes exceeds limit %d", len(s), MaxStringLen)
		}
		return
	}
	w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...)
	w.spill()
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Close appends the CRC-32C of everything written (the checksum itself
// excluded) and writes what is buffered. The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if w.err == nil {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = nil
	return w.err
}

// Reader decodes the framing format from untrusted bytes. Create with
// NewReader, read fields, then Close to verify the checksum and the end
// of stream. Every failure wraps ErrCorrupt; errors are sticky.
type Reader struct {
	// src is the unread rest of the stream until the first field read
	// takes it in; nil afterwards.
	src io.Reader
	// buf holds the stream read so far; off counts the bytes consumed.
	buf     []byte
	off     int
	err     error
	version byte
}

// NewReader starts decoding a stream, reading and validating the magic
// tag. The format version is exposed via Version for the caller to
// dispatch on; nothing past it is read until the first field is, so a
// caller that checks the version first rejects a stream it does not
// read after len(magic)+1 bytes.
func NewReader(src io.Reader, magic string) (*Reader, error) {
	hdr := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(src, hdr); err != nil {
		return nil, fmt.Errorf("%w: unexpected end of stream", ErrCorrupt)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, hdr[:len(magic)], magic)
	}
	return &Reader{src: src, buf: hdr, off: len(hdr), version: hdr[len(magic)]}, nil
}

// Version returns the format version byte following the magic tag.
func (r *Reader) Version() byte { return r.version }

// readRest takes the rest of the stream into memory, in one allocation
// when the source reports its length as bytes.Reader does.
func (r *Reader) readRest() {
	src := r.src
	r.src = nil
	size := bytes.MinRead
	if l, ok := src.(interface{ Len() int }); ok {
		size += l.Len()
	}
	b := bytes.NewBuffer(slices.Grow(r.buf, size))
	_, err := b.ReadFrom(src)
	r.buf = b.Bytes()
	if err != nil {
		r.fail("reading stream: %v", err)
	}
}

// ok reports whether n more bytes can be read, failing the stream when
// they cannot. The first call takes in the rest of the stream.
func (r *Reader) ok(n int) bool {
	if r.err != nil {
		return false
	}
	if r.src != nil {
		r.readRest()
		if r.err != nil {
			return false
		}
	}
	if len(r.buf)-r.off < n {
		r.fail("unexpected end of stream")
		return false
	}
	return true
}

// fail records the first decoding error, wrapping ErrCorrupt.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Fail lets a caller inject a semantic validation failure (an in-range
// wire value that is nonsense for the record being decoded) into the
// sticky error, so framing and semantic errors surface uniformly.
func (r *Reader) Fail(format string, args ...any) { r.fail(format, args...) }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if !r.ok(1) {
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Bool reads a bool, rejecting any encoding other than 0 or 1 so every
// stream has exactly one byte representation.
func (r *Reader) Bool() bool {
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

// Uvarint reads an unsigned varint. One-byte values, most IDs and counts
// in a summary, take the inlined fast path.
func (r *Reader) Uvarint() uint64 {
	if r.err == nil && r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	if !r.ok(1) {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		// n == 0 means the bytes ran out before a final byte; with a full
		// varint's worth left, that is ten continuation bytes.
		if n == 0 && len(r.buf)-r.off < binary.MaxVarintLen64 {
			r.fail("unexpected end of stream")
		} else {
			r.fail("malformed varint")
		}
		return 0
	}
	r.off += n
	return u
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads an unsigned varint that must fit a non-negative int —
// counts and multiplicities.
func (r *Reader) Int() int {
	u := r.Uvarint()
	if u > math.MaxInt64 {
		r.fail("count %d out of range", u)
		return 0
	}
	return int(u)
}

// Len reads a count, written by Writer.Len, of records that follow, each
// at least minSize bytes long; a count the bytes left cannot hold fails
// the stream. A decoder reads every count that sizes an allocation with
// Len, so a lying count fails before anything is allocated for it.
func (r *Reader) Len(minSize int) int {
	n := r.Int()
	if r.err == nil && n > (len(r.buf)-r.off)/minSize {
		r.fail("count %d exceeds the %d bytes left", n, len(r.buf)-r.off)
		return 0
	}
	return n
}

// U64 reads a fixed-width little-endian 64-bit word.
func (r *Reader) U64() uint64 {
	if !r.ok(8) {
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.buf[r.off-8:])
}

// String reads a length-prefixed string. The length is validated against
// MaxStringLen and the bytes left before anything is allocated. The
// string is a copy, so a decoded value never pins the stream's bytes.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > MaxStringLen {
		r.fail("string of %d bytes exceeds limit %d", n, MaxStringLen)
	}
	if r.err != nil || n == 0 {
		return ""
	}
	if !r.ok(int(n)) {
		return ""
	}
	r.off += int(n)
	return string(r.buf[r.off-int(n) : r.off])
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Close reads the trailing CRC-32C, verifies it against everything
// consumed so far, and requires the stream to end exactly there. It
// returns the sticky error, so a decoder's single error check can be
// the Close result.
func (r *Reader) Close() error {
	if !r.ok(0) {
		return r.err
	}
	want := crc32.Checksum(r.buf[:r.off], castagnoli)
	rest := r.buf[r.off:]
	if len(rest) < 4 {
		r.fail("missing checksum")
	} else if got := binary.LittleEndian.Uint32(rest); got != want {
		r.fail("checksum mismatch (stream %08x, computed %08x)", got, want)
	} else if len(rest) > 4 {
		r.fail("trailing data after checksum")
	}
	return r.err
}
