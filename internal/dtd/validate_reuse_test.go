package dtd

import (
	"strings"
	"sync"
	"testing"

	"dtdinfer/internal/regex"
)

// reusePrev and reuseNext are two consecutive versions of one schema.
// Between them a is unchanged (made pointer-identical below, as on a model
// cache hit), b is reparsed to an equal but distinct value, r and c
// change, m, e and p stop having element content, gone leaves and fresh
// arrives.
const (
	reusePrev = `<!DOCTYPE r [
<!ELEMENT r (a,b*,c?,m?,e?,p?,gone?)>
<!ELEMENT a (x,y)>
<!ELEMENT b (x|y)+>
<!ELEMENT c (x,y?)>
<!ELEMENT m (x,y)>
<!ELEMENT e (x)>
<!ELEMENT p (y)>
<!ELEMENT gone (x)>
<!ELEMENT x EMPTY>
<!ELEMENT y (#PCDATA)>
]>`
	reuseNext = `<!DOCTYPE r [
<!ELEMENT r (a,b*,c?,m?,e?,p?,fresh?)>
<!ELEMENT a (x,y)>
<!ELEMENT b (x|y)+>
<!ELEMENT c (x,y*)>
<!ELEMENT m (#PCDATA|x)*>
<!ELEMENT e EMPTY>
<!ELEMENT p (#PCDATA)>
<!ELEMENT fresh (y,x)>
<!ELEMENT x EMPTY>
<!ELEMENT y (#PCDATA)>
]>`
)

// reuseDocs exercise every element of both versions, valid and not.
var reuseDocs = []string{
	`<r><a><x/><y>t</y></a></r>`,
	`<r><a><x/><y/></a><b><y/><x/></b><b><x/></b><c><x/><y/><y/></c></r>`,
	`<r><a><x/><y/></a><c><x/><y/></c><m>t<x/></m><e/><p>t</p><fresh><y/><x/></fresh></r>`,
	`<r><a><x/><y/></a><m><x/><y/></m><e><x/></e><p><y/></p><gone><x/></gone></r>`,
	`<r><a><y/><x/></a><b/><c/><fresh><x/><y/></fresh></r>`,
	`<r><a>text<x/><y/></a></r>`,
}

func TestNewValidatorFromReusesUnchangedModels(t *testing.T) {
	prevDTD, next := MustParse(reusePrev), MustParse(reuseNext)
	next.Elements["a"].Model = prevDTD.Elements["a"].Model
	if pb, nb := prevDTD.Elements["b"].Model, next.Elements["b"].Model; pb == nb || !regex.Equal(pb, nb) {
		t.Fatal("b's models must be distinct values equal under regex.Equal")
	}
	prev := NewValidator(prevDTD)
	v := NewValidatorFrom(prev, next)

	for _, name := range []string{"a", "b"} {
		if v.dfas[name] != prev.dfas[name] {
			t.Errorf("%s: unchanged model compiled again instead of sharing prev's DFA", name)
		}
	}
	for _, name := range []string{"r", "c", "fresh"} {
		if v.dfas[name] == nil || v.dfas[name] == prev.dfas[name] {
			t.Errorf("%s: changed or new model not compiled afresh", name)
		}
	}
	// c's new model admits a second y, which prev's DFA rejects.
	if w := []string{"x", "y", "y"}; !v.dfas["c"].Member(w) || prev.dfas["c"].Member(w) {
		t.Errorf("c: DFA does not follow the changed model")
	}
	// Elements that left or lost element content carry no DFA; prev
	// keeps all of its own.
	if len(v.dfas) != 5 {
		t.Errorf("new validator holds %d DFAs, want 5 (r a b c fresh)", len(v.dfas))
	}
	for _, name := range []string{"m", "e", "p", "gone"} {
		if _, ok := v.dfas[name]; ok {
			t.Errorf("%s: DFA kept for an element without element content", name)
		}
		if prev.dfas[name] == nil {
			t.Errorf("%s: prev lost its DFA", name)
		}
	}

	eager := NewValidator(next)
	for _, doc := range reuseDocs {
		got := outcomeOf(v.Validate(strings.NewReader(doc)))
		want := outcomeOf(eager.Validate(strings.NewReader(doc)))
		if !got.equal(want) {
			t.Errorf("%s:\n reused %v\n  eager %v", doc, got, want)
		}
	}
}

// TestNewValidatorFromMatchesNewValidator builds the oracle schema's
// validator from a chain of predecessors (itself, a schema sharing only
// some models, and an unrelated one) and requires every outcome of the
// validator table to equal a fresh NewValidator's.
func TestNewValidatorFromMatchesNewValidator(t *testing.T) {
	d := MustParse(oracleDTD)
	eager := NewValidator(d)
	for _, prevDTD := range []*DTD{d, MustParse(oracleDTD), MustParse(reusePrev), MustParse(strings.Replace(oracleDTD, "(name,tag*)", "(name,tag+)", 1))} {
		v := NewValidatorFrom(NewValidator(prevDTD), d)
		for _, tc := range validateCases {
			got := outcomeOf(v.ValidateOptions(strings.NewReader(tc.doc), tc.opts))
			want := outcomeOf(eager.ValidateOptions(strings.NewReader(tc.doc), tc.opts))
			if !got.equal(want) {
				t.Errorf("%s: reused %v, eager %v", tc.name, got, want)
			}
		}
	}
}

// TestNewValidatorFromWhileValidating validates the table on prev from
// several goroutines while the worker-side path builds validators from
// prev, as a dtdserved publish does while requests still hold the old
// bundle. `make check` runs it under the race detector.
func TestNewValidatorFromWhileValidating(t *testing.T) {
	prev := NewValidator(MustParse(oracleDTD))
	want := make([]validateOutcome, len(validateCases))
	for i, tc := range validateCases {
		want[i] = outcomeOf(prev.ValidateOptions(strings.NewReader(tc.doc), tc.opts))
	}
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	errs := make(chan string, 4) // one per goroutine; each sends at most once
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (k + g) % len(validateCases)
				tc := validateCases[i]
				got := outcomeOf(prev.ValidateOptions(strings.NewReader(tc.doc), tc.opts))
				if k == 0 {
					started.Done()
				}
				if !got.equal(want[i]) {
					errs <- tc.name + ": " + got.String() + ", before the rebuild " + want[i].String()
					return
				}
			}
		}(g)
	}
	started.Wait()
	changed := MustParse(strings.Replace(oracleDTD, "(name,tag*)", "(name,tag+)", 1))
	for round := 0; round < 20; round++ {
		next := NewValidatorFrom(prev, MustParse(oracleDTD))
		NewValidatorFrom(next, changed)
		for _, tc := range validateCases[:4] {
			next.ValidateOptions(strings.NewReader(tc.doc), tc.opts)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
