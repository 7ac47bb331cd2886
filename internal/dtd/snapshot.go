package dtd

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dtdinfer/internal/intern"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
	snap "dtdinfer/internal/snapshot"
)

// Durable corpus summaries. WriteSnapshot serializes an Extraction —
// the intern tables, counted sequence multisets, text and attribute
// statistics, roots, and the incremental-inference state (memoized
// content models, <!ATTLIST> cache) — into the versioned binary wire
// format specified in DESIGN §11, and ReadSnapshot rebuilds an
// Extraction that is indistinguishable from one produced by ingesting
// the same documents: inference over it is byte-identical, re-saving it
// is byte-identical, and a warm model cache stays warm across the
// restart. The format keeps the dirty-element section of summaries
// written before cache validity rested on fingerprints alone: the
// writer emits it empty, and the reader checks and drops its names.
//
// The encoding is canonical: elements, attributes, values, roots and
// cache keys are written in sorted order, sequences in first-seen order
// and symbols in dense-ID order (the two orders that byte-identical
// inference depends on), and no wall-clock time is stored, so equal
// extractions produce equal bytes. The decoder *enforces* canonical
// order, which both rejects hand-reordered files and makes
// decode∘encode idempotent.
//
// ReadSnapshot treats its input as untrusted: every structural claim is
// validated (IDs in range, counts positive, orders strict, caps
// respected), sequence fingerprints are recomputed from the decoded
// content and compared against the stored ones, and any mismatch is an
// error wrapping snap.ErrCorrupt — never a panic. Every record count is
// read with snap.Reader.Len against the smallest encoding of one record,
// so a count the remaining bytes cannot hold fails before anything is
// allocated for it. A decoded record still costs far more memory than
// its smallest encoding, so room reserved from a count before its
// records are read stays capped by a constant as well.

const (
	snapMagic   = "DTDS"
	snapVersion = 1

	// maxSnapshotCount caps any single decoded multiplicity or tally, and
	// the sum of one element's sequence multiplicities (its occurrence
	// total). Real corpora sit many orders of magnitude below it; the cap
	// keeps hostile counts from overflowing int64 accumulations
	// downstream.
	maxSnapshotCount = 1 << 48

	// maxReservedSequences caps the distinct sequences an element record
	// may reserve room for before they are read, so a count that fits the
	// bytes left (two per sequence record) cannot make the decoder
	// allocate ~24 bytes of tables per byte of input. It covers the
	// elements of the benchmark corpora (at most ~6k distinct sequences);
	// larger ones grow as they are read.
	maxReservedSequences = 1 << 13

	// maxReservedEntries caps the model-cache entries a decoder
	// reserves room for before they are read, for the same reason.
	maxReservedEntries = 1 << 10

	// maxExprDepth caps content-model tree nesting during decode, so a
	// crafted cache section cannot force unbounded recursion. Inferred
	// models are orders of magnitude shallower.
	maxExprDepth = 10_000
)

// WriteSnapshot serializes the extraction into w. The stream is
// self-describing (magic, format version, the engine-relevant caps it
// was built under) and ends in a CRC-32C; ReadSnapshot rebuilds an
// equivalent extraction from it. The header has no field for a context
// depth, so a context extraction is refused.
func (x *Extraction) WriteSnapshot(w io.Writer) error {
	if x.k > 0 {
		return fmt.Errorf("dtd: no snapshot format for a context extraction (depth %d)", x.k)
	}
	sw := snap.NewWriter(w, snapMagic, snapVersion)
	sw.Len(maxTextSamples)
	sw.Len(maxAttValues)
	sw.Len(x.Documents)
	names := x.elementUnion()
	sw.Len(len(names))
	for _, name := range names {
		x.writeElement(sw, name)
	}
	writeSortedCounts(sw, x.Roots)
	sw.Len(0) // dirty element names, read only for compatibility
	x.writeModelCache(sw)
	x.writeAttCache(sw)
	return sw.Close()
}

// elementUnion returns, sorted, every element name any per-element map
// mentions. Ingestion always populates Sequences, but the maps are
// public; the union keeps hand-built extractions round-tripping.
func (x *Extraction) elementUnion() []string {
	seen := make(map[string]bool, len(x.Sequences))
	for n := range x.Sequences {
		seen[n] = true
	}
	for n := range x.HasText {
		seen[n] = true
	}
	for n := range x.TextSamples {
		seen[n] = true
	}
	for n := range x.TextOverflow {
		seen[n] = true
	}
	for n := range x.Attributes {
		seen[n] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (x *Extraction) writeElement(sw *snap.Writer, name string) {
	sw.String(name)
	s := x.Sequences[name]
	sw.Bool(s != nil)
	if s != nil {
		nSym := s.NumSymbols()
		sw.Len(nSym)
		for id := 0; id < nSym; id++ {
			sw.String(s.Name(id))
		}
		sw.Len(s.Unique())
		s.ForEach(func(seq []int32, count int) {
			sw.Len(len(seq))
			for _, id := range seq {
				sw.Uvarint(uint64(id))
			}
			sw.Len(count)
		})
		sw.U64(s.ShapeFingerprint())
		sw.U64(s.CountedFingerprint())
	}
	sw.Bool(x.HasText[name])
	sw.Bool(x.TextOverflow[name])
	texts := x.TextSamples[name]
	sw.Len(len(texts))
	for _, t := range texts {
		sw.String(t)
	}
	atts := x.Attributes[name]
	attNames := make([]string, 0, len(atts))
	for a := range atts {
		attNames = append(attNames, a)
	}
	sort.Strings(attNames)
	sw.Len(len(attNames))
	for _, att := range attNames {
		st := atts[att]
		sw.String(att)
		sw.Len(st.present)
		sw.Bool(st.overflow)
		vals := append([]valCount(nil), st.vals...)
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		sw.Len(len(vals))
		for _, vc := range vals {
			sw.String(vc.v)
			sw.Len(vc.n)
		}
	}
}

// writeSortedCounts writes a string->count map in sorted key order.
func writeSortedCounts(sw *snap.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sw.Len(len(keys))
	for _, k := range keys {
		sw.String(k)
		sw.Len(m[k])
	}
}

func (x *Extraction) writeModelCache(sw *snap.Writer) {
	keys := make([]modelKey, 0, len(x.cache))
	for k := range x.cache {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].config < keys[j].config
	})
	sw.Len(len(keys))
	for _, k := range keys {
		e := x.cache[k]
		sw.String(k.name)
		sw.String(k.config)
		sw.U64(e.fp)
		writeExpr(sw, e.model)
		sw.Bool(e.outcome != nil)
		if e.outcome != nil {
			o := e.outcome
			sw.String(o.Name)
			sw.String(o.Engine)
			sw.String(o.DegradedFrom)
			sw.String(o.Cause)
			sw.Uvarint(0) // elapsed time, not state
		}
	}
}

func (x *Extraction) writeAttCache(sw *snap.Writer) {
	c := x.attCache
	sw.Bool(c != nil)
	if c == nil {
		return
	}
	sw.U64(c.fp)
	sw.Len(len(c.decls))
	for _, de := range c.decls {
		sw.String(de.elem)
		sw.String(de.a.Name)
		sw.Byte(byte(de.a.Type))
		sw.Bool(de.a.Required)
		sw.Len(len(de.a.Values))
		for _, v := range de.a.Values {
			sw.String(v)
		}
	}
}

// writeExpr serializes a content-model tree structurally (op tag, then
// operands), avoiding the render/re-parse round trip and its escaping
// corner cases.
func writeExpr(sw *snap.Writer, e *regex.Expr) {
	sw.Byte(byte(e.Op))
	switch e.Op {
	case regex.OpSymbol:
		sw.String(e.Name)
		return
	case regex.OpRepeat:
		sw.Varint(int64(e.Min))
		sw.Varint(int64(e.Max))
	}
	sw.Len(len(e.Subs))
	for _, sub := range e.Subs {
		writeExpr(sw, sub)
	}
}

// ReadSnapshot rebuilds an extraction from a snapshot stream. The input
// is untrusted: malformed framing, out-of-range values, non-canonical
// ordering, cap violations and fingerprint mismatches all return errors
// (wrapping snap.ErrCorrupt) with the extraction discarded; a nil
// error means the result is indistinguishable from direct ingestion.
// The magic tag and version are read and checked first, so input that is
// not a summary this build reads is rejected after five bytes; then the
// whole rest of r is read to EOF and held in memory while it is decoded,
// so r must end (a stream that never does blocks the call) and bytes
// after the checksum are read before they are rejected.
func ReadSnapshot(r io.Reader) (*Extraction, error) {
	sr, err := snap.NewReader(r, snapMagic)
	if err != nil {
		return nil, err
	}
	if v := sr.Version(); v != snapVersion {
		return nil, fmt.Errorf("dtd: unsupported snapshot version %d (this build reads %d)", v, snapVersion)
	}
	if got := sr.Int(); sr.Err() == nil && got != maxTextSamples {
		return nil, fmt.Errorf("dtd: snapshot built with maxTextSamples=%d, this build uses %d", got, maxTextSamples)
	}
	if got := sr.Int(); sr.Err() == nil && got != maxAttValues {
		return nil, fmt.Errorf("dtd: snapshot built with maxAttValues=%d, this build uses %d", got, maxAttValues)
	}
	x := NewExtraction()
	x.Documents = readCount(sr, "documents")
	// An element record is at least its name, three flags and two counts.
	nElem := sr.Len(6)
	prev := ""
	for i := 0; i < nElem && sr.Err() == nil; i++ {
		name := sr.String()
		if i > 0 && name <= prev {
			sr.Fail("element records out of order (%q after %q)", name, prev)
			break
		}
		prev = name
		x.readElement(sr, name)
	}
	readSortedCounts(sr, "root", func(name string, n int) { x.Roots[name] = n })
	// Summaries written before cache validity rested on fingerprints
	// alone list dirty element names here; they are checked and dropped.
	nDirty := sr.Len(1)
	prev = ""
	for i := 0; i < nDirty && sr.Err() == nil; i++ {
		name := sr.String()
		if i > 0 && name <= prev {
			sr.Fail("dirty set out of order (%q after %q)", name, prev)
			break
		}
		prev = name
	}
	x.readModelCache(sr)
	x.readAttCache(sr)
	if err := sr.Close(); err != nil {
		return nil, err
	}
	// Rebuild the attribute fingerprints from the restored statistics —
	// the closed form of the incremental maintenance, so the loaded
	// extraction's <!ATTLIST> cache validates exactly as before saving.
	for elem, atts := range x.Attributes {
		for att, st := range atts {
			x.attFpAdd(elem, attStatsFingerprint(att, st), 1)
		}
	}
	return x, nil
}

// readCount reads a tally, bounding it against hostile values.
func readCount(sr *snap.Reader, what string) int {
	n := sr.Int()
	if n > maxSnapshotCount {
		sr.Fail("%s count %d exceeds limit", what, n)
		return 0
	}
	return n
}

func (x *Extraction) readElement(sr *snap.Reader, name string) {
	if sr.Bool() { // has a sequence sample
		nSym := sr.Len(1)
		set := sample.New()
		for j := 0; j < nSym && sr.Err() == nil; j++ {
			if sym := sr.String(); sr.Err() == nil {
				if err := set.ImportSymbol(sym); err != nil {
					sr.Fail("element %q: %v", name, err)
				}
			}
		}
		if sr.Err() != nil {
			return
		}
		// A sequence record is at least its length and its count.
		nSeq := sr.Len(2)
		set.Reserve(min(nSeq, maxReservedSequences))
		var used intern.Bitset
		var idBuf []int32
		total := 0
		for j := 0; j < nSeq && sr.Err() == nil; j++ {
			seqLen := sr.Len(1)
			idBuf = idBuf[:0]
			for k := 0; k < seqLen && sr.Err() == nil; k++ {
				id := sr.Uvarint()
				if id >= uint64(nSym) {
					sr.Fail("element %q: symbol ID %d out of range [0, %d)", name, id, nSym)
					return
				}
				used.Set(int(id))
				idBuf = append(idBuf, int32(id))
			}
			count := readCount(sr, "sequence")
			if sr.Err() != nil {
				return
			}
			// Each count is bounded, so the sum cannot wrap before the check.
			if total += count; total > maxSnapshotCount {
				sr.Fail("element %q: sequence counts sum past limit %d", name, maxSnapshotCount)
				return
			}
			if err := set.AddIDsChecked(idBuf, count); err != nil {
				sr.Fail("element %q: %v", name, err)
				return
			}
		}
		if sr.Err() != nil {
			return
		}
		if set.Unique() != nSeq {
			sr.Fail("element %q: duplicate sequences in snapshot (%d records, %d unique)", name, nSeq, set.Unique())
			return
		}
		if used.Count() != nSym {
			sr.Fail("element %q: %d of %d symbols occur in no sequence", name, nSym-used.Count(), nSym)
			return
		}
		// The fingerprints were recomputed from the decoded strings and
		// sequences; matching the stored ones certifies the content.
		if shape := sr.U64(); sr.Err() == nil && shape != set.ShapeFingerprint() {
			sr.Fail("element %q: shape fingerprint mismatch", name)
			return
		}
		if counted := sr.U64(); sr.Err() == nil && counted != set.CountedFingerprint() {
			sr.Fail("element %q: counted fingerprint mismatch", name)
			return
		}
		if sr.Err() != nil {
			return
		}
		x.Sequences[name] = set
	}
	if sr.Bool() {
		x.HasText[name] = true
	}
	if sr.Bool() {
		x.TextOverflow[name] = true
	}
	nText := sr.Len(1)
	if nText > maxTextSamples {
		sr.Fail("element %q: %d text samples exceed cap %d", name, nText, maxTextSamples)
		return
	}
	for j := 0; j < nText && sr.Err() == nil; j++ {
		x.TextSamples[name] = append(x.TextSamples[name], sr.String())
	}
	// An attribute record is at least its name, a count, a flag and a
	// value count.
	nAtts := sr.Len(4)
	prevAtt := ""
	for j := 0; j < nAtts && sr.Err() == nil; j++ {
		att := sr.String()
		if j > 0 && att <= prevAtt {
			sr.Fail("element %q: attributes out of order (%q after %q)", name, att, prevAtt)
			return
		}
		prevAtt = att
		st := &attStats{}
		st.present = readCount(sr, "attribute presence")
		st.overflow = sr.Bool()
		nVals := sr.Len(2)
		if nVals > maxAttValues {
			sr.Fail("element %q: attribute %q has %d values, cap is %d", name, att, nVals, maxAttValues)
			return
		}
		prevVal := ""
		for k := 0; k < nVals && sr.Err() == nil; k++ {
			v := sr.String()
			if k > 0 && v <= prevVal {
				sr.Fail("element %q: attribute %q values out of order", name, att)
				return
			}
			prevVal = v
			n := readCount(sr, "attribute value")
			if n < 1 {
				sr.Fail("element %q: attribute %q value with count %d", name, att, n)
				return
			}
			st.add(v, n)
		}
		if sr.Err() != nil {
			return
		}
		atts := x.Attributes[name]
		if atts == nil {
			atts = map[string]*attStats{}
			x.Attributes[name] = atts
		}
		atts[att] = st
	}
}

// readSortedCounts reads a sorted string->count section written by
// writeSortedCounts, enforcing order and positive counts.
func readSortedCounts(sr *snap.Reader, what string, put func(k string, n int)) {
	n := sr.Len(2)
	prev := ""
	for i := 0; i < n && sr.Err() == nil; i++ {
		k := sr.String()
		if i > 0 && k <= prev {
			sr.Fail("%s entries out of order (%q after %q)", what, k, prev)
			return
		}
		prev = k
		c := readCount(sr, what)
		if c < 1 {
			sr.Fail("%s %q has count %d", what, k, c)
			return
		}
		put(k, c)
	}
}

func (x *Extraction) readModelCache(sr *snap.Reader) {
	// A cache entry is at least two strings, a fingerprint, a model's op
	// byte and a flag.
	n := sr.Len(12)
	if n == 0 {
		return
	}
	cache := make(map[modelKey]*modelCacheEntry, min(n, maxReservedEntries))
	var prev modelKey
	for i := 0; i < n && sr.Err() == nil; i++ {
		k := modelKey{name: sr.String(), config: sr.String()}
		if i > 0 && (k.name < prev.name || (k.name == prev.name && k.config <= prev.config)) {
			sr.Fail("model cache entries out of order")
			return
		}
		prev = k
		e := &modelCacheEntry{fp: sr.U64()}
		e.model = readExpr(sr, 0)
		if sr.Bool() {
			e.outcome = &ElementOutcome{
				Name:         sr.String(),
				Engine:       sr.String(),
				DegradedFrom: sr.String(),
				Cause:        sr.String(),
			}
			// Written as 0 since entries keep no elapsed time; an older
			// summary's value is checked and dropped.
			if time.Duration(sr.Uvarint()) < 0 {
				sr.Fail("model cache outcome with negative elapsed time")
				return
			}
		}
		if sr.Err() != nil {
			return
		}
		cache[k] = e
	}
	if sr.Err() == nil {
		x.cache = cache
	}
}

func (x *Extraction) readAttCache(sr *snap.Reader) {
	if !sr.Bool() {
		return
	}
	c := &attListCache{fp: sr.U64()}
	// A declaration is at least two strings, a type, a flag and a count.
	n := sr.Len(5)
	var prev attDecl
	for i := 0; i < n && sr.Err() == nil; i++ {
		de := attDecl{elem: sr.String(), a: &Attribute{Name: sr.String()}}
		if i > 0 && (de.elem < prev.elem || (de.elem == prev.elem && de.a.Name <= prev.a.Name)) {
			sr.Fail("attlist cache declarations out of order")
			return
		}
		t := sr.Byte()
		if AttType(t) > IDREF {
			sr.Fail("attlist cache declaration with unknown type %d", t)
			return
		}
		de.a.Type = AttType(t)
		de.a.Required = sr.Bool()
		nVals := sr.Len(1)
		if nVals > maxEnumValues {
			sr.Fail("attlist cache enumeration of %d values exceeds cap %d", nVals, maxEnumValues)
			return
		}
		for k := 0; k < nVals && sr.Err() == nil; k++ {
			de.a.Values = append(de.a.Values, sr.String())
		}
		if sr.Err() != nil {
			return
		}
		prev = de
		c.decls = append(c.decls, de)
	}
	if sr.Err() == nil {
		x.attCache = c
	}
}

// readExpr decodes a content-model tree, depth-capped and validated to
// the Expr invariants (leaf shape, operand arity, repeat bounds) so
// every decoded model renders without panicking.
func readExpr(sr *snap.Reader, depth int) *regex.Expr {
	if depth > maxExprDepth {
		sr.Fail("content model nested deeper than %d", maxExprDepth)
		return nil
	}
	op := regex.Op(sr.Byte())
	if op < regex.OpSymbol || op > regex.OpRepeat {
		if sr.Err() == nil {
			sr.Fail("unknown content-model op %d", op)
		}
		return nil
	}
	e := &regex.Expr{Op: op}
	if op == regex.OpSymbol {
		e.Name = sr.String()
		if sr.Err() == nil && e.Name == "" {
			sr.Fail("content-model symbol with empty name")
			return nil
		}
		return e
	}
	if op == regex.OpRepeat {
		e.Min = int(sr.Varint())
		e.Max = int(sr.Varint())
		if sr.Err() == nil && (e.Min < 0 || (e.Max != regex.Unbounded && e.Max < e.Min)) {
			sr.Fail("content-model repeat with bounds {%d,%d}", e.Min, e.Max)
			return nil
		}
	}
	nSubs := sr.Len(1)
	minSubs, maxSubs := 1, 1
	if op == regex.OpConcat || op == regex.OpUnion {
		minSubs, maxSubs = 2, int(^uint(0)>>1)
	}
	if sr.Err() == nil && (nSubs < minSubs || nSubs > maxSubs) {
		sr.Fail("content-model op %d with %d operands", op, nSubs)
		return nil
	}
	for i := 0; i < nSubs && sr.Err() == nil; i++ {
		e.Subs = append(e.Subs, readExpr(sr, depth+1))
	}
	if sr.Err() != nil {
		return nil
	}
	return e
}

// MergeSummary folds another corpus summary — typically loaded with
// ReadSnapshot — into x. The observation state unions through the
// existing Merge machinery (remap + counted multiset merge, so shard
// summaries ingested on separate machines combine commutatively and, in
// shard order, byte-identically to single-corpus ingestion), and on top
// of Merge it adopts o's memoized inference state where x has none:
// model-cache entries under absent keys and, when x has no <!ATTLIST>
// cache, o's. Adopted entries are validated by fingerprint at the next
// inference pass like any other cache content, so a stale adoption
// costs a recompute, never a wrong answer. Not safe to call while an
// inference pass is running on x.
func (x *Extraction) MergeSummary(o *Extraction) {
	x.Merge(o)
	if len(o.cache) > 0 {
		if x.cache == nil {
			x.cache = map[modelKey]*modelCacheEntry{}
		}
		for k, e := range o.cache {
			if _, ok := x.cache[k]; !ok {
				x.cache[k] = e
			}
		}
	}
	if x.attCache == nil {
		x.attCache = o.attCache
	}
}
