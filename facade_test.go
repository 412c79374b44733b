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

// TestOptionFieldsHaveCallers guards the option rule: every field of
// the facade's option structs is set, by a composite-literal key or an
// assignment, in some non-test file of the module or of perfbench. A
// knob that only tests set belongs in a constant. Fields are matched
// by name alone.
func TestOptionFieldsHaveCallers(t *testing.T) {
	options := []string{"CustomizerOptions", "SupervisorConfig", "FleetConfig", "SLOConfig", "DumpOpts"}
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "dynacut.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each option name is an alias of an internal struct: resolve it to
	// the package directory and type name.
	imports := map[string]string{}
	for _, imp := range facade.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = strings.TrimPrefix(path, "github.com/dynacut/dynacut/")
	}
	target := map[string]*ast.SelectorExpr{}
	ast.Inspect(facade, func(n ast.Node) bool {
		if s, ok := n.(*ast.TypeSpec); ok {
			if sel, ok := s.Type.(*ast.SelectorExpr); ok {
				target[s.Name.Name] = sel
			}
		}
		return true
	})

	set := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range options {
		sel, ok := target[name]
		if !ok {
			t.Fatalf("dynacut.go has no alias %s", name)
		}
		pkg := sel.X.(*ast.Ident).Name
		fields := structFields(t, fset, imports[pkg], sel.Sel.Name)
		if len(fields) == 0 {
			t.Fatalf("%s (%s.%s) has no fields", name, pkg, sel.Sel.Name)
		}
		for _, field := range fields {
			if !set[field] {
				t.Errorf("%s.%s is set by no non-test file: make it a constant", name, field)
			}
		}
	}
}

// structFields returns the field names of the struct type typ declared
// in the non-test files of dir.
func structFields(t *testing.T, fset *token.FileSet, dir, typ string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.TypeSpec)
			if !ok || s.Name.Name != typ {
				return true
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						fields = append(fields, id.Name)
					}
				}
			}
			return false
		})
	}
	return fields
}
