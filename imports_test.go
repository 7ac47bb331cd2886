package dtdinfer

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEncodingXMLOnlyInXSDParse holds production code to one XML
// tokenizer: documents are read with internal/xmltok, and encoding/xml
// lives on only in tests, as the oracle the equivalence suites compare
// against. The one exception is internal/xsd/parse.go, which reads XML
// Schema files off the hot path. The benchmark module, its build output
// and test data are not production code and are skipped.
func TestEncodingXMLOnlyInXSDParse(t *testing.T) {
	const allowed = "internal/xsd/parse.go"
	fset := token.NewFileSet()
	var importers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/xml" {
				importers = append(importers, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(importers) != 1 || importers[0] != allowed {
		t.Errorf("production files importing encoding/xml: %v, want only %s", importers, allowed)
	}
}
