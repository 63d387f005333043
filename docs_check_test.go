// Documentation checks enforced by the CI docs job: every exported
// symbol of the public facade (modab.go) carries a doc comment (the
// equivalent of revive's exported rule, without the dependency), every
// internal package has a package comment, and the authored markdown does
// not link to files that do not exist.
package modab_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented fails on any exported top-level symbol
// or method in modab.go without a doc comment.
func TestExportedSymbolsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "modab.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	report := func(pos token.Pos, what string) {
		t.Errorf("%s: undocumented exported %s", fset.Position(pos), what)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function " + d.Name.Name
				if d.Recv != nil {
					kind = "method " + d.Name.Name
				}
				report(d.Pos(), kind)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && s.Doc == nil && d.Doc == nil {
							report(s.Pos(), "value "+name.Name)
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether d is a plain function or a method of
// an exported type: methods of unexported types (the simulated driver
// behind the driver seam) are not public surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return !ok || id.IsExported()
}

// TestInternalPackagesHaveComments fails on any internal package whose
// files all lack a package comment.
func TestInternalPackagesHaveComments(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		checked := 0
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			checked++
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if f.Doc != nil {
				documented = true
				break
			}
		}
		if checked > 0 && !documented {
			t.Errorf("package %s has no package comment", dir)
		}
	}
}

// TestEnginesImportNoHeadInternals is the structural ratchet behind
// internal/head: what precedes ordering — batching and dissemination — is
// written once there, so the non-test files of the two engines must import
// neither internal/batch nor internal/dissem (their configuration types are
// reached through engine.Config).
func TestEnginesImportNoHeadInternals(t *testing.T) {
	for _, dir := range []string{"internal/abcast", "internal/monolithic"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %d files, %v", dir, len(files), err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				switch path := strings.Trim(imp.Path.Value, `"`); path {
				case "modab/internal/batch", "modab/internal/dissem":
					t.Errorf("%s imports %s: that code belongs in internal/head", file, path)
				}
			}
		}
	}
}

// mdLink matches markdown inline links; group 1 is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks verifies that every local link in the authored
// markdown points at an existing file or directory.
func TestMarkdownLinks(t *testing.T) {
	pages := []string{"README.md"}
	docPages, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	pages = append(pages, docPages...)
	for _, page := range pages {
		raw, err := os.ReadFile(page)
		if err != nil {
			t.Fatalf("%s: %v", page, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			local := filepath.Join(filepath.Dir(page), target)
			if _, err := os.Stat(local); err != nil {
				t.Errorf("%s: broken link %q (%s)", page, m[1], local)
			}
		}
	}
}
