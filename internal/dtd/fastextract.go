package dtd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"dtdinfer/internal/intern"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/xmltok"
)

// The ingestion path: a reusable fastIngester drives the structure-only
// tokenizer (internal/xmltok) and stages one document's observations in
// a worker-local interned symbol space — no intermediate strings on the
// repeat path — before committing them into the target extraction. The
// encoding/xml loop it replaced lives on in the tests as the
// differential-testing oracle; FuzzTokenizerEquivalence holds the two to
// identical acceptance and identical extraction state.

// fastFrame is one open element during fast extraction.
type fastFrame struct {
	// wid is the element's staging key: its name's symbol ID, or at
	// context depth k > 0 its context's.
	wid int32
	// childStart is the start of this element's children span in childBuf.
	childStart int
	// nBinds counts xmlns prefix bindings this element introduced, undone
	// when it closes.
	nBinds int
}

// attStage stages one element/attribute's statistics for a document or
// a shard. It persists across documents (keyed maps and buffers are
// reused); epoch marks the document or shard generation it was last
// reset for. Byte-keyed lookups into idx on the repeat path are
// allocation-free.
type attStage struct {
	name  string
	epoch int64
	attStats
}

// elemStage stages one element name's (or context's) per-document
// observations, indexed by worker-local symbol ID. Buffers persist across
// documents; epoch marks the document the stage was last reset for, so a
// rejected document's leftovers are invisible to the next one.
type elemStage struct {
	epoch int64
	// arena concatenates this document's children sequences; ends[i] is
	// the arena offset ending the i-th sequence.
	arena []int32
	ends  []int
	// hasText marks non-whitespace character data; texts stages up to
	// textCap trimmed samples (the commit destination's remaining sample
	// space, so a full destination costs no string materialization at
	// all). textOverflow records that at least one sample was dropped at
	// the cap, so the kept set is incomplete.
	hasText      bool
	texts        []string
	textCap      int
	textOverflow bool
	// atts stages attribute statistics; attsTouched lists the ones active
	// this document in first-touch order.
	atts        map[string]*attStage
	attsTouched []*attStage
}

// elemTarget caches one element's commit destination: the target
// extraction's sample.Set for the element plus the worker-local-ID ->
// set-ID remap. Both are valid for the fastIngester's current target
// (epoch); the remap persists for as long as the target does, so a
// worker committing many shards into one corpus resolves each distinct
// child symbol's string exactly once and every later occurrence is a
// slice index.
type elemTarget struct {
	epoch int64
	set   *sample.Set
	remap intern.Remap
}

// fastIngester drives xmltok over documents and stages observations in a
// worker-local dense symbol space. One instance serves a whole batch (or
// a parallel worker's run of shards): the tokenizer, the intern table,
// and every staging buffer are reused across documents, so the per-
// document cost on a warmed-up corpus is map probes and slice appends,
// not allocations. That state makes an instance single-goroutine.
//
// The worker-local intern table grows with every distinct element name
// the worker ever sees, including names from documents that are later
// rejected; MaxNames bounds the growth per document, and the table dies
// with the batch.
//
// At context depth k > 0 the same table also interns contexts, which
// contain '/' and so never collide with a name. Staging is keyed by an
// element's context ID while sequences hold children's name IDs; a
// child's context ID comes from ctxMemo, keyed by (parent context ID,
// child name ID), so a start tag costs one probe at any depth and the
// context string is built once per distinct pair. MaxNames still counts
// names: a document of n distinct names has at most n^(k+1) contexts.
type fastIngester struct {
	tok   *xmltok.Tokenizer
	names *intern.Table

	k       int
	ctxMemo map[uint64]int32

	epoch   int64
	elems   []*elemStage // indexed by worker-local symbol ID
	touched []int32      // symbols staged this document, first-touch order

	// At k > 0, nameEpoch[w] is the last document that opened an element
	// named w, and docNames counts this document's distinct names against
	// MaxNames.
	nameEpoch []int64
	docNames  int

	stack    []fastFrame
	childBuf []int32 // concatenated children spans of the open elements
	rootBuf  []int32

	// ns tracks the open elements' xmlns prefix bindings for the
	// extraction filter's namespace-declaration corner.
	ns nsScope

	idBuf []int32 // commit scratch: one sequence in target-set IDs

	// targets caches per-element commit destinations for the current
	// target extraction, indexed by worker-local symbol ID.
	targets     []elemTarget
	target      *Extraction
	targetEpoch int64

	// shard, when non-nil, redirects successful documents' commits into a
	// worker-owned shard stage (still keyed by this ingester's symbol
	// space) instead of an Extraction; see commitToShard.
	shard *fastShard
}

// newFastIngester returns an ingester keying observations by contexts of
// k ancestor names (0: by element name); its target extractions and
// shards must have the same depth.
func newFastIngester(k int) *fastIngester {
	f := &fastIngester{tok: xmltok.NewTokenizer(), names: intern.NewTable(), k: k}
	if k > 0 {
		f.ctxMemo = map[uint64]int32{}
	}
	return f
}

// ingestOne decodes one document under the caps of opts (nil applies
// none), checking the context every cancelCheckInterval tokens, and
// commits its observations into target only on success: on error target
// is untouched. A context that can never be cancelled (Done() == nil)
// costs nothing in the loop. On cancellation the document fails with
// ctx.Err(), which callers treat as batch abortion rather than a
// per-document fault.
func (f *fastIngester) ingestOne(ctx context.Context, r io.Reader, opts *IngestOptions, target *Extraction) (docStats, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	if f.shard == nil && target != f.target {
		f.target = target
		f.targetEpoch++
	}
	f.beginDoc()
	done := ctx.Done()
	mr := &meteredReader{r: r, max: o.MaxBytes}
	tok := f.tok
	tok.Reset(mr)
	var stats docStats
	for {
		if done != nil && stats.tokens%cancelCheckInterval == 0 {
			select {
			case <-done:
				return stats, ctx.Err()
			default:
			}
		}
		kind, err := tok.Next()
		stats.bytes = mr.n
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return stats, le
			}
			return stats, fmt.Errorf("dtd: parsing XML: %w", err)
		}
		stats.tokens++
		if o.MaxTokens > 0 && stats.tokens > o.MaxTokens {
			return stats, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: tok.InputOffset()}
		}
		switch kind {
		case xmltok.StartElement:
			stats.elements++
			if o.MaxDepth > 0 && len(f.stack) >= o.MaxDepth {
				return stats, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: tok.InputOffset()}
			}
			if err := f.startElement(tok, &o); err != nil {
				return stats, err
			}
		case xmltok.EndElement:
			f.endElement()
		case xmltok.CharData:
			f.charData(tok.Text())
		}
	}
	if len(f.stack) != 0 {
		// Unreachable in practice — the tokenizer turns EOF with open
		// elements into a syntax error — but kept as a backstop.
		return stats, fmt.Errorf("dtd: unbalanced XML document")
	}
	if f.shard != nil {
		f.commitToShard(f.shard)
	} else {
		f.commit(target)
	}
	return stats, nil
}

// beginDoc resets the per-document state, including leftovers of a
// previous document that failed mid-parse.
func (f *fastIngester) beginDoc() {
	f.epoch++
	f.touched = f.touched[:0]
	f.stack = f.stack[:0]
	f.childBuf = f.childBuf[:0]
	f.rootBuf = f.rootBuf[:0]
	f.docNames = 0
	f.ns.reset()
}

// stage returns the element's staging slot, resetting it on first touch
// this document and recording it in the touched list.
func (f *fastIngester) stage(w int32) *elemStage {
	st := f.elems[w]
	if st == nil {
		st = &elemStage{}
		f.elems[w] = st
	}
	if st.epoch != f.epoch {
		st.epoch = f.epoch
		st.arena = st.arena[:0]
		st.ends = st.ends[:0]
		st.hasText = false
		st.texts = st.texts[:0]
		st.textCap = -1
		st.textOverflow = false
		st.attsTouched = st.attsTouched[:0]
		f.touched = append(f.touched, w)
	}
	return st
}

func (f *fastIngester) startElement(tok *xmltok.Tokenizer, o *IngestOptions) error {
	w := int32(f.names.InternBytes(tok.Name()))
	c := w
	if f.k > 0 {
		var err error
		if c, err = f.contextOf(w, tok, o); err != nil {
			return err
		}
	} else if o.MaxNames > 0 && len(f.touched) >= o.MaxNames && !f.staged(w) {
		// At k = 0 the staged elements are the names this document opened.
		return &LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: tok.InputOffset()}
	}
	for len(f.elems) <= int(c) {
		f.elems = append(f.elems, nil)
	}
	st := f.stage(c)
	if len(f.stack) == 0 {
		f.rootBuf = append(f.rootBuf, w)
	} else {
		f.childBuf = append(f.childBuf, w)
	}
	nBinds := 0
	if attrs := tok.Attr(); len(attrs) > 0 {
		nBinds = f.recordAttrs(st, attrs)
	}
	f.stack = append(f.stack, fastFrame{wid: c, childStart: len(f.childBuf), nBinds: nBinds})
	return nil
}

// staged reports whether symbol w has a staging slot this document.
func (f *fastIngester) staged(w int32) bool {
	return int(w) < len(f.elems) && f.elems[w] != nil && f.elems[w].epoch == f.epoch
}

// contextOf returns the context ID of an element named w opening under
// the open elements at depth k > 0, interning the context string on the
// first sight of its (parent context, name) pair. The staged elements are
// contexts here, so it counts w against MaxNames apart from them.
func (f *fastIngester) contextOf(w int32, tok *xmltok.Tokenizer, o *IngestOptions) (int32, error) {
	if o.MaxNames > 0 {
		for len(f.nameEpoch) <= int(w) {
			f.nameEpoch = append(f.nameEpoch, 0)
		}
		if f.nameEpoch[w] != f.epoch {
			if f.docNames >= o.MaxNames {
				return 0, &LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: tok.InputOffset()}
			}
			f.nameEpoch[w] = f.epoch
			f.docNames++
		}
	}
	if len(f.stack) == 0 {
		return w, nil // a root's context is its name
	}
	parent := f.stack[len(f.stack)-1].wid
	key := uint64(uint32(parent))<<32 | uint64(uint32(w))
	c, ok := f.ctxMemo[key]
	if !ok {
		c = int32(f.names.Intern(ChildContext(f.names.Name(int(parent)), f.names.Name(int(w)), f.k)))
		f.ctxMemo[key] = c
	}
	return c, nil
}

// recordAttrs stages one start tag's attributes, skipping namespace
// declarations as encoding/xml's name translation would (see nsScope).
func (f *fastIngester) recordAttrs(st *elemStage, attrs []xmltok.Attr) (nBinds int) {
	nBinds = f.ns.open(attrs)
	for i := range attrs {
		a := &attrs[i]
		if f.ns.inXmlnsSpace(a) || (len(a.Prefix) == 0 && string(a.Local) == "xmlns") {
			continue
		}
		f.recordAttr(st, a.Local, a.Value)
	}
	return nBinds
}

// recordAttr stages one attribute occurrence under the per-document
// distinct-value cap, byte-keyed so repeated names and values cost no
// allocation.
func (f *fastIngester) recordAttr(st *elemStage, name, val []byte) {
	if st.atts == nil {
		st.atts = map[string]*attStage{}
	}
	a := st.atts[string(name)]
	if a == nil {
		a = &attStage{name: string(name)}
		st.atts[a.name] = a
	}
	if a.epoch != f.epoch {
		a.epoch = f.epoch
		a.reset()
		st.attsTouched = append(st.attsTouched, a)
	}
	a.present++
	if slot, ok := a.idx[string(val)]; ok {
		a.vals[slot].n++
	} else if len(a.vals) < maxAttValues {
		a.insert(string(val), 1)
	} else {
		a.overflow = true
	}
}

func (f *fastIngester) endElement() {
	fr := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	st := f.stage(fr.wid)
	st.arena = append(st.arena, f.childBuf[fr.childStart:]...)
	st.ends = append(st.ends, len(st.arena))
	f.childBuf = f.childBuf[:fr.childStart]
	f.ns.close(fr.nBinds)
}

func (f *fastIngester) charData(text []byte) {
	if len(f.stack) == 0 {
		return
	}
	trimmed := bytes.TrimSpace(text)
	if len(trimmed) == 0 {
		return
	}
	w := f.stack[len(f.stack)-1].wid
	st := f.stage(w)
	st.hasText = true
	if st.textCap < 0 {
		if f.shard != nil {
			st.textCap = maxTextSamples - f.shard.textLen(w)
		} else {
			st.textCap = maxTextSamples - len(f.target.TextSamples[f.names.Name(int(w))])
		}
		if st.textCap < 0 {
			st.textCap = 0
		}
	}
	if len(st.texts) < st.textCap {
		st.texts = append(st.texts, string(trimmed))
	} else {
		st.textOverflow = true
	}
}

// targetFor returns the cached commit destination for element w against
// target, resolving the sample.Set (one string-keyed map lookup) and
// resetting the ID remap only when the target changed since the cache
// was last valid.
func (f *fastIngester) targetFor(w int32, target *Extraction) *elemTarget {
	for len(f.targets) <= int(w) {
		f.targets = append(f.targets, elemTarget{epoch: -1})
	}
	t := &f.targets[w]
	if t.epoch != f.targetEpoch || t.set == nil {
		t.epoch = f.targetEpoch
		t.set = target.sampleOf(f.names.Name(int(w)))
		t.remap.Reset()
	}
	return t
}

// commit folds one successfully decoded document's staged observations
// into the target, translating worker-local symbol IDs into each
// element's sample.Set space via the cached per-element remap. Symbols
// intern in observation order, so a set's IDs do not depend on how the
// corpus was cut into batches or shards.
func (f *fastIngester) commit(target *Extraction) {
	for _, w := range f.touched {
		st := f.elems[w]
		name := f.names.Name(int(w))
		if len(st.ends) > 0 {
			tgt := f.targetFor(w, target)
			before := tgt.set.ShapeFingerprint()
			start := 0
			for _, end := range st.ends {
				f.idBuf = f.idBuf[:0]
				for _, cw := range st.arena[start:end] {
					id := tgt.remap.Get(cw)
					if id < 0 {
						id = int32(tgt.set.Intern(f.names.Name(int(cw))))
						tgt.remap.Set(cw, id)
					}
					f.idBuf = append(f.idBuf, id)
				}
				tgt.set.AddIDs(f.idBuf, 1)
				start = end
			}
			if tgt.set.ShapeFingerprint() != before {
				target.markDirty(name)
			}
		}
		if st.hasText && !target.HasText[name] {
			target.HasText[name] = true
			target.markDirty(name)
		}
		target.addTexts(name, st.texts)
		if st.textOverflow {
			target.TextOverflow[name] = true
		}
		for _, a := range st.attsTouched {
			target.foldAttStats(name, a.name, &a.attStats)
		}
	}
	for _, w := range f.rootBuf {
		target.Roots[f.names.Name(int(w))]++
	}
	target.Documents++
}

// shardElem is one element's observations accumulated across a shard's
// accepted documents, still keyed by the staging worker's symbol space:
// the children sequences as a counted multiset of worker-local IDs, plus
// the text, attribute and root observations. Nothing here holds a target
// ID or an element-name string beyond attribute names and text values.
type shardElem struct {
	// epoch marks the fastShard generation this slot was last reset for;
	// a recycled shard bumps its epoch instead of clearing every slot.
	epoch int64
	ms    sample.Multiset
	// hasText/texts/textOverflow accumulate like elemStage's fields, under
	// the same per-element cap the final extraction enforces.
	hasText      bool
	texts        []string
	textOverflow bool
	// roots counts how often the element was a document root.
	roots int
	// atts accumulates attribute statistics in first-seen order (attList),
	// so the final commit folds values deterministically even at the
	// distinct-value cap.
	atts    map[string]*attStage
	attList []*attStage
}

// resetContent empties the slot's observations for a new shard
// generation, keeping allocated storage. Staged attStages are reset
// lazily by foldAttr through their own epoch marks.
func (se *shardElem) resetContent() {
	se.ms.Reset()
	se.hasText = false
	for i := range se.texts {
		se.texts[i] = ""
	}
	se.texts = se.texts[:0]
	se.textOverflow = false
	se.roots = 0
	se.attList = se.attList[:0]
}

// fastShard stages one shard's accepted documents entirely in the owning
// worker's symbol space: per-element counted ID multisets plus the
// scalar observations. A parallel worker fills it with commitToShard
// (per accepted document, keeping failure atomicity), seals it with
// sealNames, and ships it to the pipeline committer, which folds shards
// into the corpus extraction in shard order with commitFastShard — the
// only place worker-local IDs are translated, via per-worker cached
// remaps. Committed shards are recycled through a free list: reset bumps
// the epoch and slot() lazily re-initializes storage.
type fastShard struct {
	// perElem is indexed by the owning worker's symbol ID; touched lists
	// the populated slots in first-touch order across the shard's
	// documents, which is exactly the order sequential ingestion would
	// first observe them.
	perElem   []*shardElem
	touched   []int32
	documents int
	// epoch is the reuse generation; a slot whose epoch differs was last
	// touched by a previous tenant of this arena.
	epoch int64
	// names is the symbol-name snapshot sealed when the shard was
	// shipped: names[w] resolves the worker-local ID w. Captured by the
	// worker so the committer never reads the worker's live, still-growing
	// table.
	names []string
}

// slot returns the shard stage for element w, creating or lazily
// resetting it (and recording the first touch) on demand.
func (sh *fastShard) slot(w int32) *shardElem {
	for len(sh.perElem) <= int(w) {
		sh.perElem = append(sh.perElem, nil)
	}
	se := sh.perElem[w]
	if se == nil {
		se = &shardElem{epoch: -1}
		sh.perElem[w] = se
	}
	if se.epoch != sh.epoch {
		se.epoch = sh.epoch
		se.resetContent()
		sh.touched = append(sh.touched, w)
	}
	return se
}

// sealNames snapshots the staging worker's symbol strings into the shard,
// so the committer resolves worker-local IDs from an immutable slice
// while the worker keeps interning into its live table. The strings
// themselves are immutable and shared; only the slice header array is
// copied.
func (sh *fastShard) sealNames(names *intern.Table) { sh.names = names.Names() }

// reset prepares a committed shard for reuse, keeping allocated storage.
// Per-slot state resets lazily: bumping the epoch invalidates every
// shardElem at once and slot() re-initializes on first touch.
func (sh *fastShard) reset() {
	sh.epoch++
	sh.touched = sh.touched[:0]
	sh.documents = 0
	sh.names = nil
}

// textLen returns how many text samples the shard has staged for w.
func (sh *fastShard) textLen(w int32) int {
	if int(w) < len(sh.perElem) {
		if se := sh.perElem[w]; se != nil && se.epoch == sh.epoch {
			return len(se.texts)
		}
	}
	return 0
}

// beginShard switches the ingester into shard-staging mode: successful
// documents fold into sh instead of committing into an Extraction.
func (f *fastIngester) beginShard(sh *fastShard) { f.shard = sh }

// endShard leaves shard-staging mode.
func (f *fastIngester) endShard() { f.shard = nil }

// commitToShard folds one successfully decoded document's staged
// observations into the worker's shard stage. Everything is already in
// the worker's symbol space, so this is pure ID and counter work — no
// strings, no target maps — and a rejected document never reaches it.
func (f *fastIngester) commitToShard(sh *fastShard) {
	for _, w := range f.touched {
		st := f.elems[w]
		se := sh.slot(w)
		if len(st.ends) > 0 {
			start := 0
			for _, end := range st.ends {
				se.ms.AddIDs(st.arena[start:end], 1)
				start = end
			}
		}
		if st.hasText {
			se.hasText = true
		}
		if st.textOverflow {
			se.textOverflow = true
		}
		for _, t := range st.texts {
			if len(se.texts) >= maxTextSamples {
				se.textOverflow = true
				break
			}
			se.texts = append(se.texts, t)
		}
		for _, a := range st.attsTouched {
			se.foldAttr(a, sh.epoch)
		}
	}
	for _, w := range f.rootBuf {
		sh.slot(w).roots++
	}
	sh.documents++
}

// foldAttr accumulates one document's staged attribute statistic into the
// shard stage, preserving first-seen value order so the corpus commit is
// deterministic even when the distinct-value cap truncates. epoch is the
// owning fastShard's reuse generation: a stage last touched by a previous
// tenant of a recycled arena is reset on first sight.
func (se *shardElem) foldAttr(a *attStage, epoch int64) {
	if se.atts == nil {
		se.atts = map[string]*attStage{}
	}
	d := se.atts[a.name]
	if d == nil {
		d = &attStage{name: a.name, epoch: epoch - 1}
		se.atts[a.name] = d
	}
	if d.epoch != epoch {
		d.epoch = epoch
		d.reset()
		se.attList = append(se.attList, d)
	}
	d.present += a.present
	d.overflow = d.overflow || a.overflow
	for _, vc := range a.vals {
		d.add(vc.v, vc.n)
	}
}

// The fold of a sealed fastShard into the corpus extraction lives with
// the pipeline committer (commitFastShard in pipeline.go): commit state
// is owned by the committer goroutine, keyed by the sealed name
// snapshot, so workers and committer never share mutable state.
