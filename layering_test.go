package rlscope

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"net/textproto"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hypothesis"
)

// TestInternalDoesNotImportFacade pins the layering: this package is a
// facade over internal/, so no non-test file below it may import "repro" —
// that is what forced analysis code into side packages to dodge import
// cycles. Test files may use the public API.
func TestInternalDoesNotImportFacade(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				t.Errorf("%s imports the root facade %s", path, imp.Path.Value)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGridCellsArePure pins that every metric bundle the hypothesis grid
// reads is a pure function of its ⟨experiment, steps, seed⟩ cell: no non-test
// file of internal/experiments or internal/hypothesis imports "time", so
// none can read the host's clock. The simulated clock is internal/vclock.
func TestGridCellsArePure(t *testing.T) {
	m := loadedModule(t)
	for _, pkg := range []string{"repro/internal/experiments", "repro/internal/hypothesis"} {
		if len(m.files[pkg]) == 0 {
			t.Errorf("no non-test files found for %s", pkg)
		}
		for _, f := range m.files[pkg] {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` {
					t.Errorf("%s: %s imports \"time\"; a grid cell must not read the host's clock", m.fset.Position(imp.Pos()), pkg)
				}
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/surface.txt from the tree instead of comparing with it")

var surfaceFile = filepath.Join("testdata", "surface.txt")

// module is the module's non-test code, type-checked: its files by import
// path (benchmark/ is repro/benchmark), the packages checked from them, one
// types.Info over all of them, and the importer of the standard library; and,
// parsed only, its test files.
type module struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	tests []*ast.File
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule parses and type-checks the module once per test binary, so the
// tests that read it share its one go list -export.
var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			m.tests = append(m.tests, f)
			return nil
		}
		pkg := strings.TrimSuffix("repro/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		m.files[pkg] = append(m.files[pkg], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The standard library comes from the build cache's export data, listed
	// by one go command; the module's packages are checked from source.
	var std []string
	for _, pkgFiles := range m.files {
		for _, f := range pkgFiles {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if m.files[path] == nil && !slices.Contains(std, path) {
					std = append(std, path)
				}
			}
		}
	}
	std = append(std, "fmt", "io", "sort")
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		export[path] = file
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if m.files[path] == nil {
			return m.std.Import(path)
		}
		if pkg := m.pkgs[path]; pkg != nil {
			return pkg, nil
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, m.files[path], m.info)
		m.pkgs[path] = pkg
		return pkg, err
	}
	for _, path := range slices.Sorted(maps.Keys(m.files)) {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	return m, nil
})

func loadedModule(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// surfaceCallees are the functions whose every caller the surface lists, by
// types.Func.FullName less "repro/internal/" (and "repro/"): the windowed
// sweep's one entry point, which internal/analysis reaches only through
// the window state's one sweep-and-merge; the batch pipeline; the window
// state's one cut; the sidecar-index fold; and the job fan-out.
var surfaceCallees = []string{
	"(*overlap.Sweeper).ComputeWindowInto",
	"analysis.run",
	"(*analysis.window).cut",
	"(*serve.summaryFold).foldIndex",
	"experiments.forEach",
}

// TestSurface compares the module's structure with testdata/surface.txt byte
// for byte, the way Go's api/*.txt pins the standard library's. For every
// package but benchmark/ (a module of its own) the file lists, one sorted
// line a fact: every top-level declaration and every method, exported ones
// with their type or signature and unexported ones by kind and name; every
// struct field and interface method with its type; every go statement, by
// the function that encloses it; and, resolved through go/types rather than
// by spelling, every caller of surfaceCallees. A deleted declaration that
// comes back, under its old name or a new one, a third caller of a pinned
// function or a new concurrent stage is a + line here and in the file's diff.
// go test -run TestSurface -update . rewrites the file.
func TestSurface(t *testing.T) {
	got := surface(loadedModule(t))
	for _, callee := range surfaceCallees {
		if !bytes.Contains(got, []byte("call "+callee+" <- ")) {
			t.Errorf("nothing calls %s: surfaceCallees pins a function that is gone", callee)
		}
	}
	if *update {
		if err := os.WriteFile(surfaceFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	// Both are sorted: merge them into the lines only one of them has.
	var diff []string
	for a, b := strings.Split(string(want), "\n"), strings.Split(string(got), "\n"); len(a)+len(b) > 0; {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			diff, a = append(diff, "-"+a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			diff, b = append(diff, "+"+b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the tree's structure is not %s; if the change is meant, rewrite it with go test -run TestSurface -update .\n%s",
			surfaceFile, strings.Join(diff, "\n"))
	}
}

// surface renders the lines TestSurface compares. A type is listed with its
// kind (struct, interface, or the type it is defined as); a type from another
// package is qualified by its import path, less "repro/internal/" or "repro/".
func surface(m *module) []byte {
	short := strings.NewReplacer("repro/internal/", "", "repro/", "").Replace
	var lines []string
	for path, files := range m.files {
		if path == "repro/benchmark" {
			continue
		}
		scope := m.pkgs[path].Scope()
		add := func(kind, name string, t types.Type, withType bool) {
			line := path + " " + kind + " " + name
			if withType {
				line += " " + short(types.TypeString(t, types.RelativeTo(m.pkgs[path])))
			}
			if kind == "func" || kind == "method" {
				line = strings.Replace(line, " func(", "(", 1)
			}
			lines = append(lines, line)
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, ok := obj.(*types.TypeName)
			switch {
			case !ok: // the kind is ObjectString's first word: func, var or const
				add(strings.Fields(types.ObjectString(obj, nil))[0], name, obj.Type(), obj.Exported())
				continue
			case tn.IsAlias():
				add("type", name+" =", types.Unalias(tn.Type()), true)
				continue
			}
			named := tn.Type().(*types.Named)
			switch u := named.Underlying().(type) {
			case *types.Struct:
				add("type", name+" struct", nil, false)
				for f := range u.Fields() {
					add("field", name+"."+f.Name(), f.Type(), true)
				}
			case *types.Interface:
				add("type", name+" interface", nil, false)
				for f := range u.ExplicitMethods() {
					add("method", name+"."+f.Name(), f.Type(), f.Exported())
				}
				for e := range u.EmbeddedTypes() {
					add("embed", name, e, true)
				}
			default:
				add("type", name, u, true)
			}
			for f := range named.Methods() {
				recv := name
				if _, ok := f.Signature().Recv().Type().(*types.Pointer); ok {
					recv = "(*" + name + ")"
				}
				add("method", recv+"."+f.Name(), f.Type(), f.Exported())
			}
		}
		goSites := map[string]int{}
		for _, f := range files {
			for _, decl := range f.Decls {
				caller, encloser := "a package-level declaration", "a package-level declaration"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					obj := m.info.Defs[fn.Name].(*types.Func)
					caller, encloser = short(obj.FullName()), localName(obj)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if callee, ok := m.info.Uses[n].(*types.Func); ok && slices.Contains(surfaceCallees, short(callee.Origin().FullName())) {
							lines = append(lines, "call "+short(callee.Origin().FullName())+" <- "+caller)
						}
					case *ast.GoStmt:
						// One line per statement: a function's second is "#2".
						line := path + " go " + encloser
						if goSites[line]++; goSites[line] > 1 {
							line += " #" + strconv.Itoa(goSites[line])
						}
						lines = append(lines, line)
					}
					return true
				})
			}
		}
	}
	slices.Sort(lines)
	return []byte(strings.Join(slices.Compact(lines), "\n") + "\n")
}

// localName names fn the way its package's surface lines name a method:
// "f", "T.f" or "(*T).f".
func localName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return fn.Name()
	}
	t, ptr := recv.Type(), false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	name := t.(*types.Named).Obj().Name()
	if ptr {
		name = "(*" + name + ")"
	}
	return name + "." + fn.Name()
}

// TestOneSweepPath pins where scratch lives: idle scratch, the sweep's like
// the analysis scratch, the Writer's chunk buffers and the frame codecs', sits
// in a recycle.Stack that outlives a collection, and no non-test package of
// the module declares or uses a sync.Pool. Which functions reach the windowed
// sweep and the batch pipeline are the surface's call lines (TestSurface).
func TestOneSweepPath(t *testing.T) {
	m := loadedModule(t)
	for id, obj := range m.info.Uses {
		if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
			t.Errorf("a sync.Pool is back at %s", m.fset.Position(id.Pos()))
		}
	}
}

// TestOneWayEach pins the one ways that a count, not a name, holds:
// internal/serve decodes a JSON body in one place, the module spells the
// "proc%d" process-name fallback once (report.ProcName), and internal/ sets up
// an indented JSON encoder once (report.EncodeJSON); internal/serve spells
// its HTTP header keys canonically; and idle event buffers have one owner
// (checkOneEventStore). The second ways deleted by name stay deleted through
// the surface (TestSurface).
func TestOneWayEach(t *testing.T) {
	const (
		decoders  = "json.NewDecoder calls in internal/serve"
		procNames = `"proc%d" literals`
		indents   = "SetIndent calls under internal/"
	)
	m := loadedModule(t)
	counts := map[string]int{}
	for path, files := range m.files {
		if path == "repro/benchmark" {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, _ := strconv.Unquote(lit.Value); s == "proc%d" {
						counts[procNames]++
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
					if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "json" && name == "NewDecoder" && path == "repro/internal/serve" {
						counts[decoders]++
					}
				}
				if name == "SetIndent" && strings.HasPrefix(path, "repro/internal/") {
					counts[indents]++
				}
				return true
			})
		}
	}
	for _, what := range []string{decoders, procNames, indents} {
		if counts[what] != 1 {
			t.Errorf("non-test code has %d %s, want exactly 1", counts[what], what)
		}
	}
	checkHeaderKeys(t, m.fset, m.files["repro/internal/serve"])
	checkOneEventStore(t, m)
}

// checkOneEventStore fails unless, outside benchmark/, idle event buffers
// have one owner, resolved through go/types: no package keeps a
// recycle.Stack of []trace.Event, and one recycle.Store of trace.Event is
// declared and made — trace.EventBufs.
func checkOneEventStore(t *testing.T, m *module) {
	t.Helper()
	// recycled names the recycle type t is, or points at, when its element
	// is trace.Event: "Stack" for a Stack[[]trace.Event], "Store" for a
	// Store[trace.Event].
	recycled := func(t types.Type) string {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "repro/internal/recycle" || n.TypeArgs().Len() != 1 {
			return ""
		}
		arg := n.TypeArgs().At(0)
		if s, ok := arg.(*types.Slice); ok && n.Obj().Name() == "Stack" {
			arg = s.Elem()
		} else if n.Obj().Name() == "Stack" {
			return ""
		}
		if types.TypeString(arg, nil) != "repro/internal/trace.Event" {
			return ""
		}
		return n.Obj().Name()
	}
	inBenchmark := func(pos token.Pos) bool {
		return strings.HasPrefix(filepath.ToSlash(m.fset.Position(pos).Filename), "benchmark/")
	}
	declared, made := 0, 0
	for id, obj := range m.info.Defs {
		if v, ok := obj.(*types.Var); ok && !inBenchmark(id.Pos()) {
			switch recycled(v.Type()) {
			case "Stack":
				t.Errorf("%s keeps a stack of event buffers of its own at %s", v.Name(), m.fset.Position(id.Pos()))
			case "Store":
				if _, ptr := v.Type().(*types.Pointer); !ptr {
					declared++
				}
			}
		}
	}
	for e, tv := range m.info.Types {
		if tv.IsType() || inBenchmark(e.Pos()) {
			continue
		}
		switch recycled(tv.Type) {
		case "Stack":
			t.Errorf("a stack of event buffers is made or used at %s", m.fset.Position(e.Pos()))
		case "Store":
			call, isCall := e.(*ast.CallExpr)
			if _, lit := e.(*ast.CompositeLit); lit || isCall && types.ExprString(call.Fun) == "new" {
				made++
			}
		}
	}
	if declared != 1 || made != 1 {
		t.Errorf("%d stores of trace.Event declared and %d made outside benchmark/, want trace.EventBufs alone", declared, made)
	}
}

// checkHeaderKeys fails for every string literal used as an HTTP header key
// in files — an argument of a header's Set, Add, Get, Del or Values, or an
// index into one — that is not in net/http's canonical spelling: Set
// allocates to canonicalise any other, and a direct index with one misses
// what Set and Get write. A header is X.Header() or a variable assigned it.
func checkHeaderKeys(t *testing.T, fset *token.FileSet, files []*ast.File) {
	t.Helper()
	isHeaderCall := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Header"
	}
	keys := 0
	for _, f := range files {
		headerVars := map[string]bool{}
		isHeader := func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return isHeaderCall(e) || ok && headerVars[id.Name]
		}
		checkKey := func(e ast.Expr) {
			lit, ok := e.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return
			}
			keys++
			if k, _ := strconv.Unquote(lit.Value); textproto.CanonicalMIMEHeaderKey(k) != k {
				t.Errorf("header key %q is not canonical (want %q) at %s", k, textproto.CanonicalMIMEHeaderKey(k), fset.Position(lit.Pos()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && isHeaderCall(rhs) {
						headerVars[id.Name] = true
					}
				}
			case *ast.IndexExpr:
				if isHeader(n.X) {
					checkKey(n.Index)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if ok && len(n.Args) > 0 && isHeader(sel.X) && slices.Contains([]string{"Set", "Add", "Get", "Del", "Values"}, sel.Sel.Name) {
					checkKey(n.Args[0])
				}
			}
			return true
		})
	}
	if keys == 0 {
		t.Error("no header key literal found in internal/serve: the canonical-key check reads nothing")
	}
}

// linkedAnyway is the reason a method stays that only tests call: the linker
// keeps every method an interface call of the same name and signature could
// reach, so the benchmark binary holds it, and deleting it would move all the
// machine code linked after it.
const linkedAnyway = "linked into the benchmark binary all the same; deleting it moves the code after it"

// testOnlyAllowed names, with the reason each stays, the functions under
// internal/ that TestNoTestOnlyCode lets only tests reach.
var testOnlyAllowed = map[string]string{
	"calib.PCSampleEstimate":    "DESIGN §3's Appendix A.2 row names its test: the sampling estimate the paper argues against",
	"overlap.ComputeTrace":      "the per-process reference sweep that the analysis pipeline's equivalence tests compare against",
	"serve.flightGroup.waiting": "the tests' synchronisation seam: they wait until a request has joined a flight",
	"trace.ChunkError.Unwrap":   "errors.Is and errors.As call it through the error chain",
	"gpu.Device.Reset":          linkedAnyway,
	"nn.Adam.Name":              linkedAnyway,
	"trace.ColumnChunk.Len":     linkedAnyway,
	"trace.Interner.Len":        linkedAnyway,
}

// TestNoTestOnlyCode fails for every function and method declared in a
// non-test file under internal/ that the non-test code of the module and of
// benchmark/ does not reach: code that only its own tests run is a second way
// to do something that nothing ships. The module is type-checked, so a use is
// of that very method, not of its name. The roots are the uses outside
// internal/'s functions, the inits, the methods of the types the root package
// re-exports (public API), the methods by which a type satisfies error,
// fmt.Stringer, io.Writer, sort.Interface or an interface the module names
// (their calls are dynamic), and testOnlyAllowed; a function is reached when
// a root or the body of a reached function uses it.
func TestNoTestOnlyCode(t *testing.T) {
	m := loadedModule(t)
	fset, files, info := m.fset, m.files, m.info
	paths := slices.Sorted(maps.Keys(files))

	origin := func(obj types.Object) types.Object {
		if fn, ok := obj.(*types.Func); ok {
			return fn.Origin()
		}
		return obj
	}
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	// The interfaces a method may be called through: error, fmt.Stringer,
	// io.Writer, sort.Interface, every interface literal, and every named
	// interface the module declares and names somewhere.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range []string{"fmt.Stringer", "io.Writer", "sort.Interface"} {
		pkgPath, typeName, _ := strings.Cut(name, ".")
		pkg, err := m.std.Import(pkgPath)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(typeName).Type().Underlying().(*types.Interface))
	}
	public := map[*types.TypeName]bool{}
	var named []*types.Named
	for _, path := range paths {
		for _, f := range files[path] {
			declared := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					obj := info.Defs[n.Name]
					declared[n.Type] = true
					if nt, ok := obj.Type().(*types.Named); ok && !n.Assign.IsValid() {
						named = append(named, nt)
					}
					if it, ok := obj.Type().Underlying().(*types.Interface); ok && used[obj] {
						ifaces = append(ifaces, it)
					}
					if path == "repro" && n.Assign.IsValid() {
						public[types.Unalias(obj.Type()).(*types.Named).Obj()] = true
					}
				case *ast.InterfaceType:
					if !declared[n] {
						ifaces = append(ifaces, info.Types[n].Type.(*types.Interface))
					}
				}
				return true
			})
		}
	}

	type funcDecl struct {
		name string
		fn   *ast.FuncDecl
	}
	var decls []funcDecl
	var roots []types.Object
	body := map[types.Object][]types.Object{}
	inBody := map[*ast.Ident]bool{}
	// A method some interface may call is a root; LookupFieldOrMethod
	// resolves a promoted one to the embedded type's declaration.
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		for _, recv := range []types.Type{nt, types.NewPointer(nt)} {
			for _, it := range ifaces {
				if !types.Implements(recv, it) {
					continue
				}
				for i := range it.NumMethods() {
					m, _, _ := types.LookupFieldOrMethod(recv, true, it.Method(i).Pkg(), it.Method(i).Name())
					roots = append(roots, m)
				}
			}
		}
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, f := range files[path] {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := info.Defs[fn.Name]
				ast.Inspect(fn, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
						inBody[id] = true
						body[obj] = append(body[obj], origin(info.Uses[id]))
					}
					return true
				})
				name, root := fn.Name.Name, fn.Name.Name == "init"
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					name = rt.(*types.Named).Obj().Name() + "." + name
					root = public[rt.(*types.Named).Obj()]
				}
				name = strings.TrimPrefix(path, "repro/internal/") + "." + name
				if root || testOnlyAllowed[name] != "" {
					roots = append(roots, obj)
				}
				decls = append(decls, funcDecl{name, fn})
			}
		}
	}
	for id, obj := range info.Uses {
		if !inBody[id] {
			roots = append(roots, origin(obj))
		}
	}
	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[obj] {
			reached[obj] = true
			roots = append(roots, body[obj]...)
		}
	}

	for _, d := range decls {
		if !reached[info.Defs[d.fn.Name]] {
			t.Errorf("%s (%s) is reached only from tests: delete it, or move it into the tests that use it", d.name, fset.Position(d.fn.Pos()))
		}
	}
	for name := range testOnlyAllowed {
		if !slices.ContainsFunc(decls, func(d funcDecl) bool { return d.name == name }) {
			t.Errorf("testOnlyAllowed lists %s, which is gone", name)
		}
	}
}

// docNames matches the names README.md and DESIGN.md use for things in the
// tree: an internal package, a command (by path or by binary name), an
// example program and a benchmark function.
var docNames = regexp.MustCompile(`\binternal/[a-z0-9_]+|\bcmd/[a-z0-9-]+|\brlscope-[a-z0-9-]+|\bexamples/[a-z0-9_]+|\bBenchmark[A-Z]\w*`)

// docSpans matches the code spans of one line of markdown, docFlag the flag
// a word of one spells (`-workers`, `-timing=false`, `-label k=v`), docIdent
// a qualified name one holds (`trace.Reader`, `overlap.Result.Merge(r)`): a
// package, then its dotted exported names.
var (
	docSpans = regexp.MustCompile("`[^`]+`")
	docFlag  = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	docIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)((?:\.[A-Z]\w*)+)`)
)

// docHypothesis matches a hypothesis id (`F.10`, `D.seed-repro`), docRun the
// experiment ids of an `rlscope-experiments -run` command line.
var (
	docHypothesis = regexp.MustCompile(`\b[FDR]\.[a-z0-9]+(?:-[a-z0-9]+)*`)
	docRun        = regexp.MustCompile(`rlscope-experiments -run ([\w,]+)`)
)

// docMetric matches a benchmark metric a code span names, `<layer>.<snake_name>`
// (`trace.decode_v2_ns_per_event`), with its layer.
var docMetric = regexp.MustCompile(`\b([a-z]+)\.[a-z]\w*_\w*`)

// surfaceDecl matches a declaration line of testdata/surface.txt: the last
// element of the package's import path (none for the root package) and the
// name declared, a method's or a field's after its type's.
var surfaceDecl = regexp.MustCompile(`(?m)^repro(?:\S*/)?(\w*) \w+ (?:\(?\*?\w+\)?\.)?(\w+)`)

// commandFlags returns the flags each command under cmd/ defines: the name
// argument of every call into package flag.
func commandFlags(m *module) map[string]map[string]bool {
	flags := map[string]map[string]bool{}
	for pkg, files := range m.files {
		cmd, ok := strings.CutPrefix(pkg, "repro/cmd/")
		if !ok {
			continue
		}
		flags[cmd] = map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
					return true
				}
				// flag.String(name, ...), flag.Func(name, ...), flag.Var(&v, name, ...)
				for _, arg := range call.Args[:min(2, len(call.Args))] {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						flags[cmd][strings.Trim(lit.Value, "\"`")] = true
						break
					}
				}
				return true
			})
		}
	}
	return flags
}

// TestDocsNameWhatExists fails when README.md or DESIGN.md names a package,
// command, example, benchmark, command-line flag, package identifier,
// benchmark metric, hypothesis or experiment id that is no longer in the
// tree, so a deletion cannot leave its documentation behind. A flag is a code
// span that starts with one (`-workers N`): it must be defined by a command
// named on the same line, or — prose wraps — by any command when the line
// names none. A span that is a command line (`rlscope-hyp -gate`) is held to
// that command's flags. A span's `pkg.Name.Field` is held, name by name, to
// what testdata/surface.txt lists for pkg (rlscope is the root package), its
// `<layer>.<snake_name>` to the metrics BENCHMARK.json lists when the layer is
// one of theirs, and its hypothesis ids to hypotheses.json. The ids an
// `rlscope-experiments -run` line names must be ids the experiment table
// renders.
func TestDocsNameWhatExists(t *testing.T) {
	mod := loadedModule(t)
	benchmarks := map[string]bool{}
	for _, f := range mod.tests {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				benchmarks[fn.Name.Name] = true
			}
		}
	}
	isDir := func(path string) bool {
		fi, err := os.Stat(path)
		return err == nil && fi.IsDir()
	}
	// The CI badge URL's organisation and repository.
	allowed := map[string]bool{"rlscope-repro": true}
	flags := commandFlags(mod)
	// Every name the surface declares, as the docs spell it (rlscope.X for
	// the root package), and the packages it lists.
	surface, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	declared, packages := map[string]bool{}, map[string]bool{}
	for _, m := range surfaceDecl.FindAllStringSubmatch(string(surface), -1) {
		pkg := cmp.Or(m[1], "rlscope")
		declared[pkg+"."+m[2]], packages[pkg] = true, true
	}
	// BENCHMARK.json's per-layer metrics, and the layers they are named in.
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	metrics, layers := map[string]bool{}, map[string]bool{}
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
		layers[strings.Split(m.Name, ".")[0]] = true
	}
	everyCommand := slices.Sorted(maps.Keys(flags))
	grid, err := hypothesis.LoadGrid("hypotheses.json")
	if err != nil {
		t.Fatal(err)
	}
	defines := func(cmds []string, flag string) bool {
		return slices.ContainsFunc(cmds, func(cmd string) bool { return flags[cmd][flag] })
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range docNames.FindAllString(line, -1) {
				var ok bool
				switch {
				case allowed[name]:
					ok = true
				case strings.HasPrefix(name, "Benchmark"):
					ok = benchmarks[name]
				case strings.HasPrefix(name, "rlscope-"):
					ok = isDir(filepath.Join("cmd", name))
				default:
					ok = isDir(name)
				}
				if !ok {
					t.Errorf("%s:%d names %s, which is not in the tree", doc, i+1, name)
				}
			}
			for _, m := range docRun.FindAllStringSubmatch(line, -1) {
				if _, err := experiments.Select(m[1]); err != nil {
					t.Errorf("%s:%d runs %s: %v", doc, i+1, m[0], err)
				}
			}
			named := everyCommand
			if onLine := slices.DeleteFunc(docNames.FindAllString(line, -1), func(name string) bool { return flags[name] == nil }); len(onLine) > 0 {
				named = onLine
			}
			for _, span := range docSpans.FindAllString(line, -1) {
				for _, id := range docHypothesis.FindAllString(span, -1) {
					if grid.Find(id) == nil {
						t.Errorf("%s:%d names hypothesis %s, which hypotheses.json does not hold", doc, i+1, id)
					}
				}
				for _, m := range docIdent.FindAllStringSubmatch(span, -1) {
					for _, name := range strings.Split(m[2], ".")[1:] {
						if packages[m[1]] && !declared[m[1]+"."+name] {
							t.Errorf("%s:%d names %s%s, but %s declares no %s in %s", doc, i+1, m[1], m[2], m[1], name, surfaceFile)
							break
						}
					}
				}
				for _, m := range docMetric.FindAllStringSubmatch(span, -1) {
					if layers[m[1]] && !metrics[m[0]] {
						t.Errorf("%s:%d names the metric %s, which BENCHMARK.json does not list", doc, i+1, m[0])
					}
				}
				// A command line's every word, else the span's first.
				owners, words := named, strings.Fields(strings.Trim(span, "`"))
				if len(words) > 0 && flags[words[0]] != nil {
					owners, words = words[:1], words[1:]
				} else if len(words) > 1 {
					words = words[:1]
				}
				for _, word := range words {
					if m := docFlag.FindStringSubmatch(word); m != nil && !defines(owners, m[1]) {
						t.Errorf("%s:%d names the flag -%s, which %v does not define", doc, i+1, m[1], owners)
					}
				}
			}
		}
	}
}

// changesEntry is how a CHANGES.md entry starts: "PR <n>" at the head of a
// paragraph. Later paragraphs that start otherwise belong to it.
var changesEntry = regexp.MustCompile(`^PR (\d+)\b`)

// TestChangesEntriesStayShort fails when the CHANGES.md entry of PR 41 or
// later, all its paragraphs together, is over 3 000 bytes: an entry says
// what changed and points at the commit for the rest (ROADMAP item 12).
func TestChangesEntriesStayShort(t *testing.T) {
	const firstCapped, maxBytes = 41, 3000
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	size := map[int]int{}
	pr := 0
	for _, para := range strings.Split(string(text), "\n\n") {
		para = strings.TrimSpace(para)
		if m := changesEntry.FindStringSubmatch(para); m != nil {
			pr, _ = strconv.Atoi(m[1])
		}
		if pr >= firstCapped {
			size[pr] += len(para)
		}
	}
	for _, n := range slices.Sorted(maps.Keys(size)) {
		if size[n] > maxBytes {
			t.Errorf("CHANGES.md: the PR %d entry is %d bytes, over the %d-byte cap", n, size[n], maxBytes)
		}
	}
}
