package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRuntimeAssembledOnlyByBuild: Build is the one place a simulated
// runtime is put together. No non-test file of the module may name a
// runtime component's constructor from outside its own package, except
// Build itself, so a front end cannot wire a runtime by hand and drop an
// option on the way.
func TestRuntimeAssembledOnlyByBuild(t *testing.T) {
	constructors := map[string][]string{
		"tilgc/internal/costmodel": {"NewMeter"},
		"tilgc/internal/rt":        {"NewTraceTable", "NewStack"},
		"tilgc/internal/prof":      {"New"},
		"tilgc/internal/trace":     {"NewRecorder"},
		"tilgc/internal/adapt":     {"New"},
		"tilgc/internal/core":      {"NewGenerational", "NewSemispace"},
	}
	banned := map[string]bool{}
	for path, names := range constructors {
		for _, name := range names {
			banned[path+"."+name] = true
		}
	}
	found := 0
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
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		imported := map[string]string{} // local name -> import path
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imported[name] = p
		}
		for _, decl := range f.Decls {
			inBuild := filepath.ToSlash(path) == "../../internal/harness/build.go" && isFunc(decl, "Build")
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || !banned[imported[pkg.Name]+"."+sel.Sel.Name] {
					return true
				}
				if inBuild {
					found++
				} else {
					t.Errorf("%s: %s.%s outside harness.Build", path, pkg.Name, sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found != len(banned) {
		t.Errorf("Build names %d of the %d runtime constructors; the guard has drifted from it", found, len(banned))
	}
}

// isFunc reports whether decl declares the plain function name.
func isFunc(decl ast.Decl, name string) bool {
	fn, ok := decl.(*ast.FuncDecl)
	return ok && fn.Recv == nil && fn.Name.Name == name
}
