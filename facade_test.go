package dynacut

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers guards the facade rule: every exported
// name in dynacut.go is used by cmd/, examples/, perfbench/,
// session.go or a root-package test, or is a type in the signature of
// a facade function that is itself used. A re-export nothing calls
// fails here instead of accumulating.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "dynacut.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	// Root-package files name facade identifiers bare (the parser
	// leaves those references unresolved within their own file), or
	// through an import of the module root in external test packages.
	rootFiles, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(rootFiles, "session.go") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range f.Unresolved {
			used[id.Name] = true
		}
		markSelectorUses(f, used)
	}
	// Other packages name them through their import of the module root.
	for _, dir := range []string{"cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			markSelectorUses(f, used)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var names []string
	inKeptSignature := map[string]bool{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
			if used[d.Name.Name] {
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inKeptSignature[id.Name] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no declarations found in dynacut.go")
	}

	var unused []string
	for _, name := range names {
		if ast.IsExported(name) && !used[name] && !inKeptSignature[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("dynacut.go exports names nothing uses: %s", strings.Join(unused, " "))
	}
}

// markSelectorUses records every name f selects from the module root
// package, under whatever local name f imports it.
func markSelectorUses(f *ast.File, used map[string]bool) {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "github.com/dynacut/dynacut" {
			local = "dynacut"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}
