package dtd

import "dtdinfer/internal/xmltok"

// nsScope tracks the xmlns prefix bindings of the open elements, for the
// one corner where namespace resolution changes what extraction and
// validation see: an attribute whose prefix is bound to the literal value
// "xmlns" translates to Name.Space == "xmlns" under encoding/xml, which
// both treat as a namespace declaration and skip. Documents that bind no
// prefix never allocate.
type nsScope struct {
	// bind holds each prefix's live bindings, innermost last; log lists
	// the prefixes bound by the open elements, in binding order.
	bind map[string][]string
	log  []string
}

// open registers the xmlns:p bindings of one start tag's attributes and
// returns how many it made, for close. Every binding is registered before
// any attribute is judged, matching encoding/xml's Token, which applies a
// binding to all attributes of its own element regardless of position.
func (s *nsScope) open(attrs []xmltok.Attr) (n int) {
	for i := range attrs {
		a := &attrs[i]
		if string(a.Prefix) == "xmlns" {
			if s.bind == nil {
				s.bind = map[string][]string{}
			}
			p := string(a.Local)
			s.bind[p] = append(s.bind[p], string(a.Value))
			s.log = append(s.log, p)
			n++
		}
	}
	return n
}

// close undoes the last n bindings: those of the element that ends.
func (s *nsScope) close(n int) {
	for ; n > 0; n-- {
		p := s.log[len(s.log)-1]
		s.log = s.log[:len(s.log)-1]
		b := s.bind[p]
		b = b[:len(b)-1]
		if len(b) == 0 {
			delete(s.bind, p)
		} else {
			s.bind[p] = b
		}
	}
}

// reset drops every binding, including those left by a document that
// failed mid-parse.
func (s *nsScope) reset() { s.close(len(s.log)) }

// inXmlnsSpace reports whether a's name is in the "xmlns" space after
// encoding/xml's translation: its prefix is xmlns itself, or a prefix
// other than xml whose innermost binding is the literal value "xmlns".
func (s *nsScope) inXmlnsSpace(a *xmltok.Attr) bool {
	if len(a.Prefix) == 0 {
		return false
	}
	if string(a.Prefix) == "xmlns" {
		return true
	}
	if string(a.Prefix) == "xml" || s.bind == nil {
		return false
	}
	b := s.bind[string(a.Prefix)]
	return len(b) > 0 && b[len(b)-1] == "xmlns"
}
