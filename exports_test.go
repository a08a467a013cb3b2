package stratmatch

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
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

// module is the module type-checked: every package's non-test files,
// cmd/ and bench/ included, and the root package with its tests (the
// in-package ones and package stratmatch_test). One Info holds every
// package's uses, so an object is the same whoever refers to it.
type module struct {
	fset *token.FileSet
	pkgs map[string]*types.Package // by import path; "stratmatch" includes its tests
	info *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule parses every .go file under the module root, skipping
// testdata and hidden directories and the test files of every package
// but the root, and type-checks the packages; the standard library comes
// from the compiler's export data.
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
	}
	files := map[string][]*ast.File{}
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
		dir := path.Dir(filepath.ToSlash(p))
		if !strings.HasSuffix(p, ".go") || dir != "." && strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "stratmatch"
		if dir != "." {
			pkg += "/" + dir
		} else if strings.HasSuffix(f.Name.Name, "_test") {
			pkg = f.Name.Name
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(m.fset, "gc", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := m.pkgs[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, m.fset, files[path], m.info)
		m.pkgs[path] = p
		return p, err
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *module) testFile(pos token.Pos) bool {
	return strings.HasSuffix(m.fset.Position(pos).Filename, "_test.go")
}

// uses returns the objects referred to from the files keep accepts,
// methods and fields resolved through their receiver's type. A generic
// type's method or field counts through its instantiations.
func (m *module) uses(keep func(token.Pos) bool) map[types.Object]bool {
	used := map[types.Object]bool{}
	add := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	for id, obj := range m.info.Uses {
		if keep(id.Pos()) {
			add(obj)
		}
	}
	for sel, s := range m.info.Selections {
		if keep(sel.Pos()) {
			add(s.Obj())
		}
	}
	return used
}

// export is an exported package-level name, or an exported method of a
// package-level type, declared in a non-test file.
type export struct {
	obj  types.Object
	recv *types.Named // nil unless obj is a method
}

func (m *module) exportsOf(pkg *types.Package) []export {
	var out []export
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if m.testFile(obj.Pos()) {
			continue
		}
		if obj.Exported() {
			out = append(out, export{obj: obj})
		}
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !isType || !ok {
			continue
		}
		for i := range named.NumMethods() {
			if f := named.Method(i); f.Exported() && !m.testFile(f.Pos()) {
				out = append(out, export{f, named})
			}
		}
	}
	return out
}

// unreferenced lists the exports no object in used is, by position then
// name. A method also counts as used when the standard library may call
// it through an interface, or when a used interface method of the same
// name is one its receiver implements.
func (m *module) unreferenced(exps []export, used map[types.Object]bool) []string {
	ifaces := map[string][]*types.Interface{}
	for obj := range used {
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaces[f.Name()] = append(ifaces[f.Name()], it)
				}
			}
		}
	}
	implements := func(e export) bool {
		for _, it := range ifaces[e.obj.Name()] {
			if types.Implements(e.recv, it) || types.Implements(types.NewPointer(e.recv), it) {
				return true
			}
		}
		return false
	}
	var bad []string
	for _, e := range exps {
		if used[e.obj] || e.recv != nil && (stdlibMethods[e.obj.Name()] || implements(e)) {
			continue
		}
		name := e.obj.Name()
		if e.recv != nil {
			name = e.recv.Obj().Name() + "." + name
		}
		bad = append(bad, filepath.ToSlash(m.fset.Position(e.obj.Pos()).Filename)+": "+name)
	}
	sort.Strings(bad)
	return bad
}

// testOracles are internal exports whose only callers are another
// package's tests, so they cannot move into their own package's _test.go
// file; each names the tests that call it.
var testOracles = map[string]string{
	"internal/btsim/handout.go: Swarm.Neighbors": "trackerd's TestRegistryMatchesSwarm compares the registry's neighbor sets with the swarm's",
	"internal/core/config.go: Config.Validate":   "metricmatch's and dynamics' tests audit the configurations they build",
}

// TestEveryInternalExportHasCaller fails on an exported name in internal/
// that no non-test file of the module, bench/ and cmd/ included, refers
// to. A name only a test uses belongs in that package's _test.go file.
func TestEveryInternalExportHasCaller(t *testing.T) {
	m := loadModule(t)
	used := m.uses(func(pos token.Pos) bool { return !m.testFile(pos) })
	var exps []export
	for path, pkg := range m.pkgs {
		if strings.HasPrefix(path, "stratmatch/internal/") {
			exps = append(exps, m.exportsOf(pkg)...)
		}
	}
	oracles := 0
	for _, b := range m.unreferenced(exps, used) {
		if _, ok := testOracles[b]; ok {
			oracles++
			continue
		}
		t.Errorf("%s has no non-test caller", b)
	}
	if oracles != len(testOracles) {
		t.Errorf("testOracles lists %d exports, %d of them still without a non-test caller: drop the others",
			len(testOracles), oracles)
	}
}

// TestEveryRootExportIsTested fails on an exported function, method,
// constant or variable of the stratmatch package that no root test or
// Example refers to. A type passes when a test names it or another root
// declaration does: callers reach it through the values those return.
func TestEveryRootExportIsTested(t *testing.T) {
	m := loadModule(t)
	root := m.pkgs["stratmatch"]
	inRoot := func(pos token.Pos) bool {
		return path.Dir(filepath.ToSlash(m.fset.Position(pos).Filename)) == "."
	}
	seen := m.uses(func(pos token.Pos) bool { return inRoot(pos) && m.testFile(pos) })
	named := m.uses(func(pos token.Pos) bool { return inRoot(pos) && !m.testFile(pos) })
	exps := m.exportsOf(root)
	for _, e := range exps {
		if _, typ := e.obj.(*types.TypeName); typ && named[e.obj] {
			seen[e.obj] = true
		}
	}
	for _, b := range m.unreferenced(exps, seen) {
		t.Errorf("%s is not referenced by a root test or Example", b)
	}
}
