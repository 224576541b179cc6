package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The dead-export guard: every exported identifier under internal/, and
// every unexported package-level function and unexported method of a
// concrete type in any package, must have a caller in a non-test file of
// the root module or of perfbench (its own module, which imports the
// internals). main is exempt. memlpvet analyzers see one package at a
// time, so this whole-program check runs as a test over the package's
// goList loader instead.
//
// A reference inside an identifier's own declaration does not count: a
// recursive call, or a type named only in its own methods. A method also
// counts as called when a method of the same name is called through an
// interface anywhere, or when the standard library calls it through one
// (liveByInterface). Test-support packages (named *test) are skipped. A
// shared test fixture keeps a reasoned waiver on its declaration or the
// line above,
//
//	//memlpvet:ignore deadexport <reason>
//
// and a waiver that covers no dead declaration fails the guard too. Struct
// fields are not checked: encoding/json and composite literals reach them.

// deadWaiver introduces a dead-export waiver.
const deadWaiver = "//memlpvet:ignore deadexport"

// liveByInterface names methods that the standard library calls through an
// interface (fmt, errors, encoding/json), where no call site in this
// repository can show it.
var liveByInterface = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// scannedPkg is one package type-checked from its non-test files.
type scannedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadModules type-checks, from source, every package that `go list` matches
// with ./... in each module directory. Module packages are checked in
// dependency order and imported from that source check, so an object has the
// same identity in its declaring package and at every use; only the standard
// library comes from compiled export data.
func loadModules(fset *token.FileSet, dirs ...string) ([]*scannedPkg, error) {
	var listed []listPkg
	exports := map[string]string{}
	for _, dir := range dirs {
		pkgs, err := goList(dir, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.DepOnly || p.Standard {
				continue
			}
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			listed = append(listed, p)
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	var out []*scannedPkg
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		out = append(out, &scannedPkg{pkg: pkg, files: files, info: info})
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// A deadExport is one checked identifier that nothing calls.
type deadExport struct {
	pos      token.Position
	name     string // pkg.Name or pkg.Type.Method
	exported bool
}

type fileLine struct {
	file string
	line int
}

// deadExports returns the checked identifiers that no non-test file
// references, and the positions of the deadexport waivers that cover no
// dead declaration.
func deadExports(fset *token.FileSet, pkgs []*scannedPkg) (dead []deadExport, staleWaivers []token.Position) {
	used := map[types.Object]bool{}
	viaInterface := map[string]bool{}
	for _, sp := range pkgs {
		if !isTestHelper(sp.pkg) {
			sp.markUses(used, viaInterface)
		}
	}
	for _, sp := range pkgs {
		if isTestHelper(sp.pkg) {
			continue
		}
		waivers := map[fileLine]bool{} // waiver line → covers a dead declaration
		for _, f := range sp.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, deadWaiver+" ") {
						pos := fset.Position(c.Pos())
						waivers[fileLine{pos.Filename, pos.Line}] = false
					}
				}
			}
		}
		for _, c := range candidates(sp.pkg, strings.Contains(sp.pkg.Path()+"/", "/internal/")) {
			if used[c.obj] || c.method && (viaInterface[c.obj.Name()] || liveByInterface[c.obj.Name()]) {
				continue
			}
			pos := fset.Position(c.obj.Pos())
			waived := false
			for _, l := range []fileLine{{pos.Filename, pos.Line}, {pos.Filename, pos.Line - 1}} {
				if _, ok := waivers[l]; ok {
					waivers[l], waived = true, true
				}
			}
			if !waived {
				dead = append(dead, deadExport{pos: pos, name: c.name, exported: c.obj.Exported()})
			}
		}
		for l, covers := range waivers {
			if !covers {
				staleWaivers = append(staleWaivers, token.Position{Filename: l.file, Line: l.line})
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	sort.Slice(staleWaivers, func(i, j int) bool {
		a, b := staleWaivers[i], staleWaivers[j]
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return dead, staleWaivers
}

// markUses records every object the package's files refer to from outside
// the object's own declaration, and the names of methods called through an
// interface.
func (sp *scannedPkg) markUses(used map[types.Object]bool, viaInterface map[string]bool) {
	mark := func(n ast.Node, self ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := origin(sp.info.Uses[id]); obj != nil && !slices.Contains(self, obj) {
					used[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range sp.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				self := []types.Object{sp.info.Defs[d.Name]}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					self = append(self, recvTypeName(sp.info, d.Recv.List[0].Type))
				}
				mark(d, self...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						mark(spec, sp.info.Defs[ts.Name])
					} else {
						mark(spec)
					}
				}
			}
		}
	}
	for _, sel := range sp.info.Selections {
		if types.IsInterface(sel.Recv()) {
			viaInterface[sel.Obj().Name()] = true
		}
	}
}

// origin maps a method or field of an instantiated generic type to its
// declaration, which is the object the candidates list holds.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvTypeName returns the named type of a method receiver expression.
func recvTypeName(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

type candidate struct {
	obj    types.Object
	name   string
	method bool // a concrete method, which an interface call can reach
}

// candidates lists the package's unexported package-level functions (main
// excepted) and the unexported methods of its concrete named types. With
// exports it adds the exported package-level objects and the exported
// methods of its exported named types, interface methods included.
func candidates(pkg *types.Package, exports bool) []candidate {
	var out []candidate
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if _, fn := obj.(*types.Func); fn && !obj.Exported() && !(pkg.Name() == "main" && n == "main") ||
			exports && obj.Exported() {
			out = append(out, candidate{obj: obj, name: pkg.Name() + "." + n})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); !m.Exported() || exports && obj.Exported() {
				out = append(out, candidate{obj: m, name: pkg.Name() + "." + n + "." + m.Name(), method: true})
			}
		}
		if iface, ok := named.Underlying().(*types.Interface); ok && exports && obj.Exported() {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if m := iface.ExplicitMethod(i); m.Exported() {
					out = append(out, candidate{obj: m, name: pkg.Name() + "." + n + "." + m.Name()})
				}
			}
		}
	}
	return out
}

// isTestHelper reports whether pkg is a test-support package such as
// analysistest, whose exports exist for tests alone.
func isTestHelper(pkg *types.Package) bool { return strings.HasSuffix(pkg.Name(), "test") }

// scanDeadExports loads the modules under the given directories and returns
// the guard's findings as "file:line: message" lines relative to root.
func scanDeadExports(t *testing.T, root string, dirs ...string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, dirs...)
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := deadExports(fset, pkgs)
	var out []string
	rel := func(p token.Position) string {
		r, err := filepath.Rel(root, p.Filename)
		if err != nil {
			r = p.Filename
		}
		return fmt.Sprintf("%s:%d", filepath.ToSlash(r), p.Line)
	}
	for _, d := range dead {
		what := "has no reference outside tests"
		if d.exported {
			what = "is exported but nothing outside tests references it"
		}
		out = append(out, fmt.Sprintf("%s: %s %s", rel(d.pos), d.name, what))
	}
	for _, w := range stale {
		out = append(out, fmt.Sprintf("%s: deadexport waiver covers no dead declaration", rel(w)))
	}
	return out
}

// TestNoDeadInternalExports fails when an exported identifier under
// internal/, or an unexported function or method of any package, has no
// caller in a non-test file of the root module or of perfbench, and when a
// deadexport waiver covers no dead declaration. Delete such an identifier,
// or move it into the _test.go file that needs it; a fixture shared by the
// tests of several packages keeps a waiver.
func TestNoDeadInternalExports(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range scanDeadExports(t, root, root, filepath.Join(root, "perfbench")) {
		t.Error(f)
	}
}

// deadFixture is a module exercising each of the guard's rules; the want
// list in TestDeadExportRules names what the guard must report.
var deadFixture = map[string]string{
	"go.mod": "module example.com/dead\n\ngo 1.22\n",
	"main.go": `package main

import (
	"fmt"

	"example.com/dead/internal/a"
)

func main() {
	a.Called()
	var s a.Shape = a.Square{}
	var st a.Stack[int]
	st.Push(1)
	fmt.Println(s.Area(), a.Named(1), a.Waived(), a.Sorted())
	helper()
}

// helper is called by main.
func helper() {}

// unusedHelper is not: main packages are checked for unexported functions.
func unusedHelper() {}
`,
	"internal/a/a.go": `package a

// Called has a caller in main.
func Called() {}

// Uncalled has none.
func Uncalled() {}

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shape: main calls Area through it; nothing calls Perimeter.
type Shape interface {
	Area() float64
	Perimeter() float64
}

// Square is reached only through Shape.
type Square struct{}

// Area is called through the Shape interface.
func (Square) Area() float64 { return 1 }

// Perimeter is never called.
func (Square) Perimeter() float64 { return 4 }

// Named is printed by fmt, which calls String through fmt.Stringer.
type Named int

func (Named) String() string { return "named" }

// Stack is generic; main calls Push on an instance of it.
type Stack[T any] struct{ items []T }

// Push is reached through Stack[int].
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Orphan is named only in its own method.
type Orphan struct{}

// Self returns its receiver's type.
func (Orphan) Self() Orphan { return Orphan{} }

// Fixture serves only tests.
//
//memlpvet:ignore deadexport a fixture for the tests of other packages
func Fixture() {}

// Waived is called, so its waiver is stale.
//
//memlpvet:ignore deadexport stale on purpose
func Waived() int { return 0 }
`,
	"internal/a/b.go": `package a

// lesser is how Sorted reaches pair.less.
type lesser interface{ less() bool }

type pair struct{}

// less is called through lesser.
func (pair) less() bool { return true }

// idle is an unexported method nothing calls.
func (pair) idle() {}

// Exported methods of unexported types are not checked.
func (pair) Exported() {}

// Sorted is called by main; it calls less through lesser, and twice.
func Sorted() bool {
	var l lesser = pair{}
	return l.less() && twice(1) > 0
}

func twice(n int) int { return 2 * n }

// recurse calls only itself.
func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// testOnly serves a_test.go alone.
func testOnly() int { return 1 }
`,
	"internal/a/a_test.go": `package a

import "testing"

func TestTestOnly(t *testing.T) { _ = testOnly() }
`,
	"pub/pub.go": `package pub

// Exported needs no caller outside internal/.
func Exported() {}

// unexported is checked in every package.
func unexported() {}
`,
	"internal/helpertest/h.go": `package helpertest

// Helper serves tests alone and is not reported.
func Helper() {}
`,
}

// TestDeadExportRules runs the guard over deadFixture and checks each rule:
// same-declaration references, interface calls, stdlib interface methods,
// methods of generic types, *test packages, waivers and stale waivers, and
// for unexported functions and methods: every package is checked, main is
// exempt, and a reference from a _test.go file does not count.
func TestDeadExportRules(t *testing.T) {
	dir := t.TempDir()
	for name, src := range deadFixture {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	got := scanDeadExports(t, dir, dir)
	want := []string{
		"internal/a/a.go:44: a.Orphan is exported but nothing outside tests references it",
		"internal/a/a.go:47: a.Orphan.Self is exported but nothing outside tests references it",
		"internal/a/a.go:10: a.Recursive is exported but nothing outside tests references it",
		"internal/a/a.go:20: a.Shape.Perimeter is exported but nothing outside tests references it",
		"internal/a/a.go:30: a.Square.Perimeter is exported but nothing outside tests references it",
		"internal/a/a.go:7: a.Uncalled is exported but nothing outside tests references it",
		"internal/a/b.go:12: a.pair.idle has no reference outside tests",
		"internal/a/b.go:26: a.recurse has no reference outside tests",
		"internal/a/b.go:34: a.testOnly has no reference outside tests",
		"main.go:22: main.unusedHelper has no reference outside tests",
		"pub/pub.go:7: pub.unexported has no reference outside tests",
		"internal/a/a.go:56: deadexport waiver covers no dead declaration",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
