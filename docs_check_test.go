// Documentation checks enforced by the CI docs job: every exported
// symbol of the public facade (modab.go) carries a doc comment (the
// equivalent of revive's exported rule, without the dependency), every
// internal package has a package comment, the import and codec
// boundaries between the engines and the shared code hold, and the
// authored markdown does not link to files that do not exist.
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
			if !d.Name.IsExported() {
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

// TestEnginesImportNoHeadInternals holds the structural ratchets on
// non-test files. What precedes ordering — batching and dissemination — is
// written once in internal/head, so the two engines import neither
// internal/batch nor internal/dissem (their configuration types are
// reached through engine.Config). The Chandra–Toueg round rules are written
// once in internal/ct: it stays a pure table (no stack framework, no head
// or tail), and the monolithic engine reaches the rules through it, never
// through the modular consensus layer. And the facade is the one real-time
// driver: modab.Cluster runs internal/runtime nodes itself, so no other
// package imports internal/runtime, and the root package does not import
// the simulator, which cmd/abbench and the harnesses drive directly.
func TestEnginesImportNoHeadInternals(t *testing.T) {
	var packages []string // every package but the root
	for _, pattern := range []string{"cmd/*", "examples/*", "internal/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		packages = append(packages, dirs...)
	}
	for _, rule := range []struct {
		dirs, forbidden []string
		why             string
	}{
		{[]string{"internal/abcast", "internal/monolithic"},
			[]string{"modab/internal/batch", "modab/internal/dissem"}, "that code belongs in internal/head"},
		{[]string{"internal/ct"}, []string{"modab/internal/stack", "modab/internal/tail", "modab/internal/head"},
			"the round core is a pure table; each stack supplies its envelope through ct.Host"},
		{[]string{"internal/monolithic"}, []string{"modab/internal/consensus"}, "the round rules live in internal/ct"},
		{[]string{"."}, []string{"modab/internal/netsim"}, "the facade drives runtime nodes, not the simulator"},
		{packages, []string{"modab/internal/runtime"}, "modab.Cluster is the one driver of runtime nodes"},
	} {
		for _, dir := range rule.dirs {
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
					path := strings.Trim(imp.Path.Value, `"`)
					for _, bad := range rule.forbidden {
						if path == bad {
							t.Errorf("%s imports %s: %s", file, path, rule.why)
						}
					}
				}
			}
		}
	}
}

// tailFrameCodecs are the internal/wire codecs of the tail and head frames:
// state transfer, payload repair, announce and ring relay.
var tailFrameCodecs = map[string]bool{
	"AppendRecoverReqFrame": true, "AppendRecoverRespFrame": true,
	"AppendSnapReqFrame": true, "AppendSnapRespFrame": true,
	"AppendPayloadFetchFrame": true, "AppendPayloadRespFrame": true,
	"AppendAnnounceFrame": true, "AppendRelayFrame": true,
	"UnmarshalRecoverReq": true, "UnmarshalRecoverResp": true,
	"UnmarshalSnapReq": true, "UnmarshalSnapResp": true,
	"UnmarshalPayloadFetch": true, "UnmarshalPayloadRespFrame": true,
	"UnmarshalAnnounceFrame": true, "UnmarshalRelayFrame": true,
}

// TestEnginesEncodeNoTailFrames is the boundary of the one wire vocabulary
// outside ordering: the tail and the head encode their frames and the head
// routes what arrives, so no engine (outside its tests) references a tail
// or head frame codec — a second encoder or a second frame switch would
// let the stacks' bytes drift apart again.
func TestEnginesEncodeNoTailFrames(t *testing.T) {
	for _, dir := range []string{"internal/abcast", "internal/monolithic"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %d files, %v", dir, len(files), err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			name := ""
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == "modab/internal/wire" {
					name = "wire"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && tailFrameCodecs[sel.Sel.Name] {
					t.Errorf("%s: %s.%s: tail and head frames are encoded in internal/tail and internal/head and routed by head.Receive",
						fset.Position(sel.Pos()), name, sel.Sel.Name)
				}
				return true
			})
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
