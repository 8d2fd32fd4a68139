package jsonl

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCodecPackagesAvoidReflection: the codec and the schemas over it
// encode and decode without reflection. No non-test file of theirs may
// import encoding/json or reflect, except the Chrome trace emitter. The
// encoding/json oracle package, internal/jsonloracle, is for tests only.
func TestCodecPackagesAvoidReflection(t *testing.T) {
	banned := map[string]bool{"encoding/json": true, "reflect": true}
	for _, dir := range []string{".", "../slo", "../adapt", "../trace"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") || filepath.ToSlash(path) == "../trace/chrome.go" {
				continue
			}
			for _, imp := range imports(t, path) {
				if banned[imp] {
					t.Errorf("%s imports %s", path, imp)
				}
			}
		}
	}

	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == "hostbench" || strings.HasPrefix(d.Name(), ".") && path != "../..") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, imp := range imports(t, path) {
			if imp == "tilgc/internal/jsonloracle" {
				t.Errorf("%s, not a test file, imports %s", path, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func imports(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, spec := range f.Imports {
		imp, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, imp)
	}
	return out
}
