package stratmatch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// stdlibMethods are method names the standard library calls through an
// interface (fmt, errors, sort, container/heap, encoding, io, net/http),
// so a method with one of these names has a caller even when no source
// line names it.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// goFile is one parsed source file of the module (bench/ included) with
// the import path of its package.
type goFile struct {
	name string // slash path relative to the module root
	pkg  string // import path, e.g. "stratmatch/internal/core"
	test bool
	ast  *ast.File
}

// parseModule parses every .go file under the module root, skipping
// testdata and hidden directories.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(p)
		pkg := "stratmatch"
		if dir := path.Dir(name); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, goFile{name, pkg, strings.HasSuffix(p, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// export is one exported package-level name or method declared in a
// non-test file.
type export struct {
	pkg, name string
	method    bool
	typ       bool
	pos       string
}

func exportsOf(files []goFile, keep func(goFile) bool) []export {
	var out []export
	for _, f := range files {
		if f.test || !keep(f) {
			continue
		}
		add := func(id *ast.Ident, method, typ bool) {
			if id.IsExported() {
				out = append(out, export{f.pkg, id.Name, method, typ, f.name})
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Recv != nil, false)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, false, true)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, false, false)
						}
					}
				}
			}
		}
	}
	return out
}

// refs collects the names each file set refers to: "pkg.Name" for a
// package-level name (qualified through an import, or bare inside its
// own package) and ".Name" for the selector of any other X.Sel and for a
// struct literal's field key, which is how a method or field is reached.
// Identifiers that declare something (top-level names, struct fields,
// interface methods, parameters) are not references. Methods match by
// name, so they can only over-count.
func refs(files []goFile, keep func(goFile) bool) map[string]bool {
	seen := map[string]bool{}
	for _, f := range files {
		if !keep(f) {
			continue
		}
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		// The package's own names, minus the identifiers that declare them.
		decl := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decl[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decl[s.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							decl[id] = true
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if fl, ok := n.(*ast.Field); ok {
				for _, id := range fl.Names {
					decl[id] = true
				}
			}
			return true
		})
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						seen[p+"."+n.Sel.Name] = true
						return false
					}
				}
				seen["."+n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.CompositeLit:
				switch n.Type.(type) {
				case *ast.MapType, *ast.ArrayType:
					return true // keys are expressions
				}
				// A struct literal, or one whose type is elided or named:
				// a bare key is taken as a field name.
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							seen["."+k.Name] = true
							ast.Inspect(kv.Value, visit)
							continue
						}
					}
					ast.Inspect(e, visit)
				}
				return false
			case *ast.Ident:
				if !decl[n] {
					seen[f.pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}
	return seen
}

func unreferenced(exps []export, seen map[string]bool) []string {
	var bad []string
	for _, e := range exps {
		if e.method && (stdlibMethods[e.name] || seen["."+e.name]) || !e.method && seen[e.pkg+"."+e.name] {
			continue
		}
		bad = append(bad, e.pos+": "+e.name)
	}
	sort.Strings(bad)
	return bad
}

// TestEveryInternalExportHasCaller fails on an exported name in internal/
// that no non-test file of the module, bench/ and cmd/ included, refers
// to. A name only a test uses belongs in that package's _test.go file.
func TestEveryInternalExportHasCaller(t *testing.T) {
	files := parseModule(t)
	internal := func(f goFile) bool { return strings.HasPrefix(f.name, "internal/") }
	nonTest := func(f goFile) bool { return !f.test }
	for _, b := range unreferenced(exportsOf(files, internal), refs(files, nonTest)) {
		t.Errorf("%s has no non-test caller", b)
	}
}

// TestEveryRootExportIsTested fails on an exported function, method,
// constant or variable of the stratmatch package that no root test or
// Example refers to. A type passes when a test names it or another root
// declaration does: callers reach it through the values those return.
func TestEveryRootExportIsTested(t *testing.T) {
	files := parseModule(t)
	root := func(f goFile) bool { return f.pkg == "stratmatch" }
	seen := refs(files, func(f goFile) bool { return root(f) && f.test })
	named := refs(files, func(f goFile) bool { return root(f) && !f.test })
	exps := exportsOf(files, root)
	for _, e := range exps {
		if key := e.pkg + "." + e.name; e.typ && named[key] {
			seen[key] = true
		}
	}
	for _, b := range unreferenced(exps, seen) {
		t.Errorf("%s is not referenced by a root test or Example", b)
	}
}
