package dtd

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
)

// refSchema declares an ID attribute and an IDREF attribute so reference
// resolution can be exercised directly.
func refSchema(t *testing.T) *Validator {
	t.Helper()
	d, err := Parse(`<!DOCTYPE db [
<!ELEMENT db (rec|ref)*>
<!ELEMENT rec EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST rec id ID #REQUIRED>
<!ATTLIST ref to IDREF #REQUIRED>
]>`)
	if err != nil {
		t.Fatal(err)
	}
	return NewValidator(d)
}

func TestValidatorIDREFResolution(t *testing.T) {
	v := refSchema(t)
	tests := []struct {
		name string
		doc  string
		want string // substring of a violation reason, "" = valid
	}{
		{"resolved", `<db><rec id="a"/><ref to="a"/></db>`, ""},
		{"forward reference", `<db><ref to="a"/><rec id="a"/></db>`, ""},
		{"self and cross", `<db><rec id="a"/><rec id="b"/><ref to="a"/><ref to="b"/></db>`, ""},
		{"dangling", `<db><rec id="a"/><ref to="zzz"/></db>`, `IDREF attribute to value "zzz" does not match any ID`},
		{"no ids at all", `<db><ref to="a"/></db>`, "does not match any ID"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			violations, err := v.Validate(strings.NewReader(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if len(violations) != 0 {
					t.Errorf("want valid, got %v", violations)
				}
				return
			}
			found := false
			for _, viol := range violations {
				if strings.Contains(viol.Reason, tc.want) {
					found = true
					if viol.Offset <= 0 {
						t.Errorf("dangling IDREF violation carries no offset: %+v", viol)
					}
				}
			}
			if !found {
				t.Errorf("want violation containing %q, got %v", tc.want, violations)
			}
		})
	}
}

func TestValidatorIDREFOffsetPointsAtReference(t *testing.T) {
	v := refSchema(t)
	doc := `<db><rec id="a"/><ref to="gone"/></db>`
	violations, err := v.Validate(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("violations = %v", violations)
	}
	// The offset is a byte position (not a line number) at the reference's
	// start tag, which begins at byte 17.
	at := violations[0].Offset
	if at < 17 || at > int64(len(doc)) {
		t.Errorf("offset = %d, want within the <ref> tag of %q", at, doc)
	}
}

func TestValidateOptionsLimits(t *testing.T) {
	d := MustParse(`<!ELEMENT d (d?)>`)
	v := NewValidator(d)
	deep := strings.Repeat("<d>", 5000) + strings.Repeat("</d>", 5000)
	_, err := v.ValidateOptions(strings.NewReader(deep), &IngestOptions{MaxDepth: 100})
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "depth" {
		t.Fatalf("want depth LimitError, got %v", err)
	}
	if _, err := v.ValidateOptions(strings.NewReader(deep), &IngestOptions{MaxBytes: 64}); !errors.Is(err, ErrLimit) {
		t.Fatalf("want byte LimitError, got %v", err)
	}
	if _, err := v.ValidateOptions(strings.NewReader(deep), &IngestOptions{MaxTokens: 10}); !errors.Is(err, ErrLimit) {
		t.Fatalf("want token LimitError, got %v", err)
	}
	// Within caps the document validates normally.
	violations, err := v.ValidateOptions(strings.NewReader("<d><d/></d>"), DefaultIngestOptions())
	if err != nil || len(violations) != 0 {
		t.Fatalf("capped validation of a valid document: %v %v", err, violations)
	}
}

// TestValidatorConcurrentUse shares one Validator between 8 goroutines,
// as dtdserved shares a published schema's Validator between requests:
// every goroutine validates every body of the oracle table, valid and
// invalid, several times over, and each result must equal the sequential
// one. `make check` runs it under the race detector.
func TestValidatorConcurrentUse(t *testing.T) {
	v := NewValidator(MustParse(oracleDTD))
	want := make([]validateOutcome, len(validateCases))
	for i, tc := range validateCases {
		want[i] = outcomeOf(v.ValidateOptions(strings.NewReader(tc.doc), tc.opts))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8) // one per goroutine; each sends at most once
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for k := range validateCases {
					i := (k + g) % len(validateCases) // goroutines start apart
					tc := validateCases[i]
					got := outcomeOf(v.ValidateOptions(strings.NewReader(tc.doc), tc.opts))
					if !got.equal(want[i]) {
						errs <- tc.name + ": " + got.String() + ", sequential " + want[i].String()
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if !slices.ContainsFunc(want, func(o validateOutcome) bool { return len(o.violations) > 0 }) {
		t.Fatal("no body of the table is invalid")
	}
}
