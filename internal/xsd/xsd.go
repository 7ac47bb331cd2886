// Package xsd generates W3C XML Schema documents from inferred DTDs, the
// final extension sketched in Section 9 of the paper: 85% of real-world
// XSDs are structurally equivalent to a DTD, so emitting one "is merely a
// matter of using the correct syntax", improved here by datatype detection
// heuristics (integers, decimals, dates, times, booleans, NMTOKENs) over
// the sampled text values.
package xsd

import (
	"fmt"
	"strconv"
	"strings"

	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
)

// Generate renders the DTD as an XML Schema. textSamples optionally maps
// element names to observed text values for datatype detection (pass nil
// to default every text element to xs:string).
func Generate(d *dtd.DTD, textSamples map[string][]string) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" elementFormDefault="qualified">` + "\n")
	// XML Schema has no designated root; emitting the DTD's root first lets
	// Parse recover it by the first-element convention.
	if root := d.Elements[d.Root]; root != nil {
		writeElement(&b, root, textSamples, "  ")
	}
	for _, name := range d.Names() {
		if name == d.Root {
			continue
		}
		writeElement(&b, d.Elements[name], textSamples, "  ")
	}
	b.WriteString("</xs:schema>\n")
	return b.String()
}

func writeElement(b *strings.Builder, e *dtd.Element, textSamples map[string][]string, indent string) {
	switch e.Type {
	case dtd.PCData:
		if len(e.Attributes) == 0 {
			fmt.Fprintf(b, "%s<xs:element name=%q type=%q/>\n", indent, e.Name,
				DetectType(textSamples[e.Name]))
			return
		}
		// Text content plus attributes: simpleContent extension.
		fmt.Fprintf(b, "%s<xs:element name=%q>\n", indent, e.Name)
		fmt.Fprintf(b, "%s  <xs:complexType>\n", indent)
		fmt.Fprintf(b, "%s    <xs:simpleContent>\n", indent)
		fmt.Fprintf(b, "%s      <xs:extension base=%q>\n", indent,
			DetectType(textSamples[e.Name]))
		writeAttributes(b, e, indent+"        ")
		fmt.Fprintf(b, "%s      </xs:extension>\n", indent)
		fmt.Fprintf(b, "%s    </xs:simpleContent>\n", indent)
		fmt.Fprintf(b, "%s  </xs:complexType>\n", indent)
		fmt.Fprintf(b, "%s</xs:element>\n", indent)
	case dtd.Empty:
		fmt.Fprintf(b, "%s<xs:element name=%q>\n", indent, e.Name)
		if len(e.Attributes) == 0 {
			fmt.Fprintf(b, "%s  <xs:complexType/>\n", indent)
		} else {
			fmt.Fprintf(b, "%s  <xs:complexType>\n", indent)
			writeAttributes(b, e, indent+"    ")
			fmt.Fprintf(b, "%s  </xs:complexType>\n", indent)
		}
		fmt.Fprintf(b, "%s</xs:element>\n", indent)
	case dtd.Any:
		fmt.Fprintf(b, "%s<xs:element name=%q type=\"xs:anyType\"/>\n", indent, e.Name)
	case dtd.Mixed:
		fmt.Fprintf(b, "%s<xs:element name=%q>\n", indent, e.Name)
		fmt.Fprintf(b, "%s  <xs:complexType mixed=\"true\">\n", indent)
		fmt.Fprintf(b, "%s    <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n", indent)
		for _, n := range e.MixedNames {
			fmt.Fprintf(b, "%s      <xs:element ref=%q/>\n", indent, n)
		}
		fmt.Fprintf(b, "%s    </xs:choice>\n", indent)
		writeAttributes(b, e, indent+"    ")
		fmt.Fprintf(b, "%s  </xs:complexType>\n", indent)
		fmt.Fprintf(b, "%s</xs:element>\n", indent)
	case dtd.Children:
		fmt.Fprintf(b, "%s<xs:element name=%q>\n", indent, e.Name)
		fmt.Fprintf(b, "%s  <xs:complexType>\n", indent)
		// A complexType's content must be a model group: a bare element
		// reference (a single-symbol model) is wrapped in a sequence.
		if _, inner := combine(occurs{1, 1}, e.Model); inner.Op == regex.OpSymbol {
			fmt.Fprintf(b, "%s    <xs:sequence>\n", indent)
			writeParticle(b, e.Model, occurs{1, 1}, indent+"      ")
			fmt.Fprintf(b, "%s    </xs:sequence>\n", indent)
		} else {
			writeParticle(b, e.Model, occurs{1, 1}, indent+"    ")
		}
		writeAttributes(b, e, indent+"    ")
		fmt.Fprintf(b, "%s  </xs:complexType>\n", indent)
		fmt.Fprintf(b, "%s</xs:element>\n", indent)
	}
}

// writeAttributes renders the element's attribute declarations.
func writeAttributes(b *strings.Builder, e *dtd.Element, indent string) {
	for _, a := range e.Attributes {
		use := ""
		if a.Required {
			use = ` use="required"`
		}
		switch a.Type {
		case dtd.Enumerated:
			fmt.Fprintf(b, "%s<xs:attribute name=%q%s>\n", indent, a.Name, use)
			fmt.Fprintf(b, "%s  <xs:simpleType>\n", indent)
			fmt.Fprintf(b, "%s    <xs:restriction base=\"xs:NMTOKEN\">\n", indent)
			for _, v := range a.Values {
				fmt.Fprintf(b, "%s      <xs:enumeration value=%q/>\n", indent, v)
			}
			fmt.Fprintf(b, "%s    </xs:restriction>\n", indent)
			fmt.Fprintf(b, "%s  </xs:simpleType>\n", indent)
			fmt.Fprintf(b, "%s</xs:attribute>\n", indent)
		default:
			typ := map[dtd.AttType]string{
				dtd.CDATA:   "xs:string",
				dtd.NMTOKEN: "xs:NMTOKEN",
				dtd.ID:      "xs:ID",
				dtd.IDREF:   "xs:IDREF",
			}[a.Type]
			fmt.Fprintf(b, "%s<xs:attribute name=%q type=%q%s/>\n", indent, a.Name, typ, use)
		}
	}
}

// occurs carries minOccurs/maxOccurs; max -1 is unbounded.
type occurs struct{ min, max int }

func (o occurs) attrs() string {
	out := ""
	if o.min != 1 {
		out += fmt.Sprintf(" minOccurs=%q", strconv.Itoa(o.min))
	}
	switch {
	case o.max == regex.Unbounded:
		out += ` maxOccurs="unbounded"`
	case o.max != 1:
		out += fmt.Sprintf(" maxOccurs=%q", strconv.Itoa(o.max))
	}
	return out
}

func combine(o occurs, e *regex.Expr) (occurs, *regex.Expr) {
	for {
		switch e.Op {
		case regex.OpOpt:
			o.min = 0
			e = e.Sub()
		case regex.OpPlus:
			o.max = regex.Unbounded
			e = e.Sub()
		case regex.OpStar:
			o.min, o.max = 0, regex.Unbounded
			e = e.Sub()
		case regex.OpRepeat:
			o.min, o.max = e.Min, e.Max
			e = e.Sub()
		default:
			return o, e
		}
	}
}

func writeParticle(b *strings.Builder, e *regex.Expr, o occurs, indent string) {
	o, e = combine(o, e)
	switch e.Op {
	case regex.OpSymbol:
		fmt.Fprintf(b, "%s<xs:element ref=%q%s/>\n", indent, e.Name, o.attrs())
	case regex.OpConcat:
		fmt.Fprintf(b, "%s<xs:sequence%s>\n", indent, o.attrs())
		for _, s := range e.Subs {
			writeParticle(b, s, occurs{1, 1}, indent+"  ")
		}
		fmt.Fprintf(b, "%s</xs:sequence>\n", indent)
	case regex.OpUnion:
		fmt.Fprintf(b, "%s<xs:choice%s>\n", indent, o.attrs())
		for _, s := range e.Subs {
			writeParticle(b, s, occurs{1, 1}, indent+"  ")
		}
		fmt.Fprintf(b, "%s</xs:choice>\n", indent)
	}
}

// DetectType guesses an XML Schema built-in datatype from sampled text
// values, defaulting to xs:string. All values must agree on a type for it
// to be chosen; integers that also parse as decimals prefer xs:integer.
func DetectType(values []string) string {
	if len(values) == 0 {
		return "xs:string"
	}
	allInt, allDec, allBool, allDate, allTime, allDateTime, allNMTOKEN :=
		true, true, true, true, true, true, true
	// A flag only ever goes from true to false and the choice below reads
	// nothing else, so each value is tested only against the types no
	// earlier value ruled out, and the scan ends once none is left. That
	// skips most of the cost: a failed ParseInt or ParseFloat allocates
	// its *NumError and a copy of the value.
	for _, v := range values {
		if allInt {
			_, err := strconv.ParseInt(v, 10, 64)
			allInt = err == nil
		}
		if allDec {
			_, err := strconv.ParseFloat(v, 64)
			allDec = err == nil
		}
		allBool = allBool && (v == "true" || v == "false" || v == "0" || v == "1")
		allDate = allDate && isDate(v)
		allTime = allTime && isTime(v)
		allDateTime = allDateTime && isDateTime(v)
		allNMTOKEN = allNMTOKEN && isNMTOKEN(v)
		if !(allInt || allDec || allBool || allDate || allTime || allDateTime || allNMTOKEN) {
			break
		}
	}
	switch {
	case allBool && !allInt:
		return "xs:boolean"
	case allInt:
		return "xs:integer"
	case allDec:
		return "xs:decimal"
	case allDate:
		return "xs:date"
	case allDateTime:
		return "xs:dateTime"
	case allTime:
		return "xs:time"
	case allNMTOKEN:
		return "xs:NMTOKEN"
	default:
		return "xs:string"
	}
}

func isDate(v string) bool {
	// YYYY-MM-DD
	if len(v) != 10 || v[4] != '-' || v[7] != '-' {
		return false
	}
	return digits(v[:4]) && digits(v[5:7]) && digits(v[8:10])
}

func isTime(v string) bool {
	// HH:MM:SS
	if len(v) != 8 || v[2] != ':' || v[5] != ':' {
		return false
	}
	return digits(v[:2]) && digits(v[3:5]) && digits(v[6:8])
}

func isDateTime(v string) bool {
	// YYYY-MM-DDTHH:MM:SS
	return len(v) == 19 && v[10] == 'T' && isDate(v[:10]) && isTime(v[11:])
}

func isNMTOKEN(v string) bool {
	if v == "" {
		return false
	}
	for _, r := range v {
		ok := r == '.' || r == '-' || r == '_' || r == ':' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

func digits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
