package xsd

import (
	"strconv"
	"strings"
	"testing"
)

// oracleDetectType is DetectType as it was before it stopped testing a
// type once an earlier value had ruled it out: every value is tested
// against every type. It is the reference the early-stopping version is
// held to.
func oracleDetectType(values []string) string {
	if len(values) == 0 {
		return "xs:string"
	}
	allInt, allDec, allBool, allDate, allTime, allDateTime, allNMTOKEN :=
		true, true, true, true, true, true, true
	for _, v := range values {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			allInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			allDec = false
		}
		if v != "true" && v != "false" && v != "0" && v != "1" {
			allBool = false
		}
		if !isDate(v) {
			allDate = false
		}
		if !isTime(v) {
			allTime = false
		}
		if !isDateTime(v) {
			allDateTime = false
		}
		if !isNMTOKEN(v) {
			allNMTOKEN = false
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

// detectTypeCases covers every type DetectType can choose, the inputs
// strconv accepts beyond plain numbers, and lists whose deciding value
// comes first or last.
var detectTypeCases = []struct {
	values []string
	want   string
}{
	{nil, "xs:string"},
	{[]string{}, "xs:string"},
	{[]string{"1", "42", "-7", "+3", "-0"}, "xs:integer"},
	// Past int64 ParseInt fails but ParseFloat does not.
	{[]string{"9223372036854775807"}, "xs:integer"},
	{[]string{"9223372036854775808"}, "xs:decimal"},
	{[]string{"1", "-99999999999999999999"}, "xs:decimal"},
	{[]string{"NaN"}, "xs:decimal"},
	{[]string{"Inf", "+Inf", "-inf", "infinity"}, "xs:decimal"},
	{[]string{"0x1p-2", "0X1.8P3"}, "xs:decimal"},
	// A hex mantissa needs a 'p' exponent to parse as a float.
	{[]string{"0x1F"}, "xs:NMTOKEN"},
	{[]string{"1e5", "2.5E-3", ".5"}, "xs:decimal"},
	// ParseFloat takes Go's digit separators; ParseInt in base 10 does not.
	{[]string{"1_000"}, "xs:decimal"},
	{[]string{"0", "1"}, "xs:integer"},
	{[]string{"true", "false"}, "xs:boolean"},
	{[]string{"true", "0", "1", "false"}, "xs:boolean"},
	{[]string{"True"}, "xs:NMTOKEN"},
	{[]string{"2006-09-12", "2006-09-15"}, "xs:date"},
	{[]string{"2006-9-12"}, "xs:NMTOKEN"},
	{[]string{"12:30:00", "23:59:59"}, "xs:time"},
	{[]string{"2006-09-12T12:30:00"}, "xs:dateTime"},
	{[]string{"2006-09-12", "2006-09-12T12:30:00"}, "xs:NMTOKEN"},
	{[]string{"abc", "a-b_c.d", "x:y"}, "xs:NMTOKEN"},
	{[]string{"é"}, "xs:string"},
	{[]string{""}, "xs:string"},
	{[]string{" 1"}, "xs:string"},
	{[]string{"hello world"}, "xs:string"},
	// The deciding value first, then last.
	{[]string{"hello world", "1", "2", "true"}, "xs:string"},
	{[]string{"1", "2", "true", "hello world"}, "xs:string"},
	{[]string{"abc", "1", "2"}, "xs:NMTOKEN"},
	{[]string{"1", "2", "abc"}, "xs:NMTOKEN"},
	{[]string{"1.5", "1", "2"}, "xs:decimal"},
	{[]string{"1", "2", "1.5"}, "xs:decimal"},
	{[]string{"2", "true", "false"}, "xs:NMTOKEN"},
	{[]string{"true", "false", "2"}, "xs:NMTOKEN"},
	{[]string{"NaN", "1", "2"}, "xs:decimal"},
	{[]string{"1", "2", "NaN"}, "xs:decimal"},
}

func TestDetectTypeMatchesOracle(t *testing.T) {
	for _, tc := range detectTypeCases {
		got, want := DetectType(tc.values), oracleDetectType(tc.values)
		if got != want {
			t.Errorf("DetectType(%q) = %q, oracle says %q", tc.values, got, want)
		}
		if got != tc.want {
			t.Errorf("DetectType(%q) = %q, want %q", tc.values, got, tc.want)
		}
	}
}

// FuzzDetectTypeOracle holds DetectType to oracleDetectType on arbitrary
// value lists, NUL-separated in one input (NUL cannot occur in XML text);
// the empty input is the empty list.
func FuzzDetectTypeOracle(f *testing.F) {
	for _, tc := range detectTypeCases {
		f.Add(strings.Join(tc.values, "\x00"))
	}
	f.Fuzz(func(t *testing.T, data string) {
		var values []string
		if data != "" {
			values = strings.Split(data, "\x00")
		}
		if got, want := DetectType(values), oracleDetectType(values); got != want {
			t.Fatalf("DetectType(%q) = %q, oracle says %q", values, got, want)
		}
	})
}
