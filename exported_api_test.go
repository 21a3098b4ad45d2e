package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the current exported identifiers")

// apiPackages are the packages a program outside this module can import;
// every other package is internal or a command.
var apiPackages = []struct{ dir, path string }{
	{".", "repro"},
	{"server", "repro/server"},
	{"server/apiv1", "repro/server/apiv1"},
}

const apiGolden = "testdata/api.txt"

// TestExportedAPI freezes the public surface: every exported identifier of
// the importable packages, with its signature (and, for struct fields, its
// tag), must match testdata/api.txt, so a change to the surface shows up
// as a diff of that file. Regenerate it after an intended change with
//
//	go test -run TestExportedAPI -update-api .
func TestExportedAPI(t *testing.T) {
	var lines []string
	for _, p := range apiPackages {
		lines = append(lines, exportedAPI(t, p.dir, p.path)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-api)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	var diff []string
	for _, l := range missing(lines, wantLines) {
		diff = append(diff, "+ "+l)
	}
	for _, l := range missing(wantLines, lines) {
		diff = append(diff, "- "+l)
	}
	if len(diff) == 0 {
		diff = append(diff, "(same lines, different order)")
	}
	t.Fatalf("exported API differs from %s (+ added, - removed); if intended, rerun with -update-api:\n%s",
		apiGolden, strings.Join(diff, "\n"))
}

// missing returns the lines of a that b does not contain.
func missing(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}

// exportedAPI lists the exported identifiers of the package in dir, one
// per line, in go/doc order: constants, variables, functions, then each
// type with its fields or methods, constructors and methods.
func exportedAPI(t *testing.T, dir, path string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, path)
	if err != nil {
		t.Fatal(err)
	}

	var out []string
	add := func(format string, args ...any) {
		out = append(out, path+": "+fmt.Sprintf(format, args...))
	}
	str := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	values := func(kind string, vals []*doc.Value) {
		for _, v := range vals {
			var typ ast.Expr // a constant without type or value repeats the last one's
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil || vs.Values != nil {
					typ = vs.Type
				}
				for i, name := range vs.Names {
					switch {
					case !name.IsExported():
					case typ != nil:
						add("%s %s %s", kind, name, str(typ))
					case i < len(vs.Values):
						add("%s %s = %s", kind, name, str(vs.Values[i]))
					default:
						add("%s %s", kind, name)
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			if f.Level > 0 {
				continue // promoted from an embedded type, listed with it
			}
			decl := *f.Decl
			decl.Doc, decl.Body = nil, nil
			add("%s", str(&decl))
		}
	}
	// members lists the exported fields of a struct or methods of an
	// interface, an embedded one under its type's name.
	members := func(typeName, kind string, list *ast.FieldList) {
		for _, f := range list.List {
			tag := ""
			if f.Tag != nil {
				tag = " " + f.Tag.Value
			}
			if len(f.Names) == 0 {
				if embedded := strings.TrimPrefix(str(f.Type), "*"); ast.IsExported(embedded[strings.LastIndex(embedded, ".")+1:]) {
					add("type %s %s, embedded %s%s", typeName, kind, str(f.Type), tag)
				}
				continue
			}
			for _, name := range f.Names {
				if name.IsExported() {
					add("type %s %s, %s %s%s", typeName, kind, name, str(f.Type), tag)
				}
			}
		}
	}

	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, ty := range pkg.Types {
		for _, spec := range ty.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Name.Name != ty.Name {
				continue
			}
			switch st := ts.Type.(type) {
			case *ast.StructType:
				add("type %s struct", ty.Name)
				members(ty.Name, "struct", st.Fields)
			case *ast.InterfaceType:
				add("type %s interface", ty.Name)
				members(ty.Name, "interface", st.Methods)
			default:
				assign := ""
				if ts.Assign.IsValid() {
					assign = " ="
				}
				add("type %s%s %s", ty.Name, assign, str(ts.Type))
			}
		}
		values("const", ty.Consts)
		values("var", ty.Vars)
		funcs(ty.Funcs)
		funcs(ty.Methods)
	}
	return out
}
