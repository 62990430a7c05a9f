package dejavu_test

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

// TestFacadeNamesHaveCallers keeps the facade to what its users call: every
// exported name of dejavu.go must appear in a test or Example of this package
// or in a command under cmd/. A type nobody names still counts when a called
// function returns it or a named struct has an exported field of it (Socket
// comes from Connect, ResumePoint fills Config.Resume). Methods are matched
// by selector name in the files that import the facade.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "dejavu.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// What the callers name: dejavu.X selectors, and any .M selector of a
	// file that uses the facade.
	named, selected := map[string]bool{}, map[string]bool{}
	scan := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/dejavu" {
				pkg = "dejavu"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					named[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		if path != "surface_test.go" {
			scan(path)
		}
	}
	err = filepath.WalkDir(filepath.Join("..", "cmd"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			scan(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// The facade's exported names, each with the identifiers its results or
	// exported fields mention.
	type decl struct {
		name     string // "Node.Start" for a method
		used     bool
		mentions []string
	}
	var decls []decl
	idents := func(fields []*ast.Field, exportedOnly bool) []string {
		var out []string
		for _, f := range fields {
			if exportedOnly && (len(f.Names) == 0 || !f.Names[0].IsExported()) {
				continue
			}
			ast.Inspect(f.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					out = append(out, id.Name)
				}
				return true
			})
		}
		return out
	}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			var results []string
			if d.Type.Results != nil {
				results = idents(d.Type.Results.List, false)
			}
			if d.Recv == nil {
				decls = append(decls, decl{d.Name.Name, named[d.Name.Name], results})
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			decls = append(decls, decl{recv.(*ast.Ident).Name + "." + d.Name.Name, selected[d.Name.Name], results})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						var fields []string
						if st, ok := s.Type.(*ast.StructType); ok {
							fields = idents(st.Fields.List, true)
						}
						decls = append(decls, decl{s.Name.Name, named[s.Name.Name], fields})
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							decls = append(decls, decl{id.Name, named[id.Name], nil})
						}
					}
				}
			}
		}
	}

	// A type nobody names is used when a used declaration mentions it. The
	// types this rescues are aliases, which mention nothing, so one pass
	// suffices.
	mentioned := map[string]bool{}
	for _, d := range decls {
		if d.used {
			for _, m := range d.mentions {
				mentioned[m] = true
			}
		}
	}
	for _, d := range decls {
		if !d.used && !mentioned[d.name] {
			t.Errorf("dejavu.%s has no caller in dejavu's tests or cmd/: use it there or delete it", d.name)
		}
	}
}
