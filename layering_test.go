package rlscope

import (
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
	"sort"
	"strconv"
	"strings"
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

// parseNonTest parses the non-test files of one package directory.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// callersOf lists, sorted, the functions ("Recv.name" for methods) of files
// that call a function or method with one of the given names, spelled plain
// (run(…)) or selected (x.run(…), pkg.Run(…)).
func callersOf(files []*ast.File, names ...string) []string {
	var callers []string
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					var called string
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						called = fun.Name
					case *ast.SelectorExpr:
						called = fun.Sel.Name
					}
					if slices.Contains(names, called) {
						callers = append(callers, name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(callers)
	return callers
}

// forbidIdents fails for every identifier of files spelled like one of banned.
func forbidIdents(t *testing.T, fset *token.FileSet, files []*ast.File, banned ...string) {
	t.Helper()
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(banned, id.Name) {
				t.Errorf("%s is named again at %s", id.Name, fset.Position(id.Pos()))
			}
			return true
		})
	}
}

// TestOneSweepPath pins the batch refactor structurally: the windowed sweep
// is reached from exactly two functions in internal/analysis — the
// pipeline's sweep job and Incremental.sweep — so a third analysis path
// cannot grow back unnoticed; the batch pipeline is entered from exactly
// Engine.Analyze and the two context-free shorthands Run and RunStream;
// internal/trace exports no partitioner of its own again; a window is swept
// in one pass, transition markers scoped inside it, with no second
// segment-table sweep beside it; and the sweep's scratch, like the
// analysis scratch and the Writer's chunk buffers, sits in a bounded pool
// that outlives a collection, not in a sync.Pool — internal/trace keeps
// only its two decoder/encoder scratch pools.
func TestOneSweepPath(t *testing.T) {
	fset := token.NewFileSet()
	analysisFiles := parseNonTest(t, fset, filepath.Join("internal", "analysis"))
	callers := callersOf(analysisFiles, "ComputeWindow", "ComputeWindowInto")
	if want := []string{"Incremental.sweep", "pipeline.sweep"}; !slices.Equal(callers, want) {
		t.Errorf("windowed sweep called from %v, want exactly %v", callers, want)
	}
	if got, want := callersOf(analysisFiles, "run"), []string{"Engine.Analyze", "Run", "RunStream"}; !slices.Equal(got, want) {
		t.Errorf("the batch pipeline is entered from %v, want exactly %v", got, want)
	}
	// Spelled in two halves so a grep for the deleted names stays empty.
	traceFiles := parseNonTest(t, fset, filepath.Join("internal", "trace"))
	forbidIdents(t, fset, traceFiles, "Shards", "Phase"+"Partition")
	overlapFiles := parseNonTest(t, fset, filepath.Join("internal", "overlap"))
	forbidIdents(t, fset, overlapFiles, "build"+"Segments", "op"+"At", "op"+"Segment")
	pooled := slices.Concat(overlapFiles, analysisFiles, traceFiles, parseNonTest(t, fset, filepath.Join("internal", "profiler")))
	for _, f := range pooled {
		ast.Inspect(f, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == 1 && slices.Contains([]string{"v1DecPool", "v2EncPool"}, vs.Names[0].Name) {
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
					t.Errorf("a sync.Pool is back at %s", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
}

// TestOneTraceLifecycle pins internal/serve's registry structurally: the
// Server holds exactly one map (the registry, keyed by trace id), a sidecar
// index is folded into a summary from exactly two places — the append of an
// open trace and newTraceEntry's walk of a complete directory — and nothing
// of the second registry or the sealed-but-still-live state is named again.
func TestOneTraceLifecycle(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTest(t, fset, filepath.Join("internal", "serve"))
	var maps []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Server" {
				return true
			}
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				if _, ok := field.Type.(*ast.MapType); ok {
					for _, name := range field.Names {
						maps = append(maps, name.Name)
					}
				}
			}
			return false
		})
	}
	if want := []string{"traces"}; !slices.Equal(maps, want) {
		t.Errorf("serve.Server's map fields are %v, want exactly %v", maps, want)
	}
	if got, want := callersOf(files, "foldIndex"), []string{"Server.handleAppendChunk", "newTraceEntry"}; !slices.Equal(got, want) {
		t.Errorf("sidecar indexes folded from %v, want exactly %v", got, want)
	}
	forbidIdents(t, fset, files, "li"+"ves", "live"+"IDs", "live"+"Lookup", "live"+"Info", "evict"+"Sealed",
		"final"+"Stats", "has"+"Meta", "handle"+"LiveSummary", "ind"+"exes")
}

// TestOneWayEach pins the second ways that were deleted so none grows back:
// internal/trace speaks frames, not streams — no exported function takes an
// io.Reader or io.Writer; internal/analysis exports no job pool (ForEach…)
// beside the pipeline's own workers; overlap.Result has no merge of its own
// beside analysis.MergeResult; internal/experiments, the one package that
// fans independent jobs out, is the only non-test caller of a fan-out;
// internal/serve decodes a JSON body in one place and exports no second
// constructor or result-set path; the module spells the "proc%d" process-name
// fallback once (report.ProcName); and internal/ sets up an indented JSON
// encoder once (report.EncodeJSON); an analysis's one input is
// analysis.Source, not a second open one in internal/trace, its one stage is
// the corrector, with no interface in front of it, its one context-taking
// entry is Engine.Analyze, and internal/calib builds a shift index one way.
func TestOneWayEach(t *testing.T) {
	fset := token.NewFileSet()
	funcs := func(dir string) (fns []*ast.FuncDecl) {
		for _, f := range parseNonTest(t, fset, dir) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					fns = append(fns, fn)
				}
			}
		}
		return fns
	}
	for _, fn := range funcs(filepath.Join("internal", "trace")) {
		if !fn.Name.IsExported() {
			continue
		}
		ast.Inspect(fn.Type.Params, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Reader" || sel.Sel.Name == "Writer") {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "io" {
					t.Errorf("trace.%s takes an io.%s (%s)", fn.Name.Name, sel.Sel.Name, fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
	for _, fn := range funcs(filepath.Join("internal", "analysis")) {
		if fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "ForEach") {
			t.Errorf("internal/analysis exports %s again", fn.Name.Name)
		}
	}
	for _, fn := range funcs(filepath.Join("internal", "overlap")) {
		if fn.Recv != nil && fn.Name.Name == "Merge" {
			t.Errorf("overlap declares a Merge method again at %s", fset.Position(fn.Pos()))
		}
	}
	callers := map[string]bool{}
	serveDir := filepath.Join("internal", "serve")
	const (
		decoders  = "json.NewDecoder calls in internal/serve"
		procNames = `"proc%d" literals`
		indents   = "SetIndent calls under internal/"
	)
	counts := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
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
				if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "json" && name == "NewDecoder" && filepath.Dir(path) == serveDir {
					counts[decoders]++
				}
			}
			if name == "SetIndent" && strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				counts[indents]++
			}
			if name == "forEach" || strings.HasPrefix(name, "ForEach") {
				callers[filepath.Dir(path)] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(maps.Keys(callers))
	if want := []string{filepath.Join("internal", "experiments")}; !slices.Equal(got, want) {
		t.Errorf("a job fan-out is called from %v, want exactly %v", got, want)
	}
	for _, what := range []string{decoders, procNames, indents} {
		if counts[what] != 1 {
			t.Errorf("non-test code has %d %s, want exactly 1", counts[what], what)
		}
	}
	forbidIdents(t, fset, parseNonTest(t, fset, serveDir), "NewServerStrict", "LoadResults", "ResultSetKey")
	// Spelled in two halves so a grep for the deleted names stays empty.
	forbidIdents(t, fset, parseNonTest(t, fset, filepath.Join("internal", "trace")),
		"Sou"+"rce", "From"+"Trace", "From"+"Reader", "From"+"Dir")
	forbidIdents(t, fset, parseNonTest(t, fset, filepath.Join("internal", "analysis")),
		"Event"+"Stage", "Run"+"Context", "RunStream"+"Context")
	forbidIdents(t, fset, parseNonTest(t, fset, filepath.Join("internal", "calib")), "build"+"Shift")
	// One way to correct an event, and one cut scan for both of its callers.
	var mappers []string
	for _, fn := range funcs(filepath.Join("internal", "calib")) {
		if fn.Recv != nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "Map") {
			mappers = append(mappers, fn.Name.Name)
		}
	}
	if slices.Sort(mappers); !slices.Equal(mappers, []string{"MapEvent", "MapSpan"}) {
		t.Errorf("calib maps with %v, want exactly MapEvent and MapSpan", mappers)
	}
	if got, want := callersOf(parseNonTest(t, fset, filepath.Join("internal", "analysis")), "cut"), []string{"incWindow.split", "pipeline.closeWindow"}; !slices.Equal(got, want) {
		t.Errorf("window.cut is called from %v, want exactly %v", got, want)
	}
	checkHeaderKeys(t, fset, parseNonTest(t, fset, serveDir))
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

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path; benchmark/ is repro/benchmark
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("repro/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The standard library comes from the build cache's export data, listed
	// by one go command; the module's packages are checked from source.
	var std []string
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if files[path] == nil && !slices.Contains(std, path) {
					std = append(std, path)
				}
			}
		}
	}
	std = append(std, "fmt", "io", "sort")
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		export[path] = file
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if files[path] == nil {
			return gc.Import(path)
		}
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		checked[path] = pkg
		return pkg, err
	}
	paths := slices.Sorted(maps.Keys(files))
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}

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
		pkg, err := gc.Import(pkgPath)
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

// packageIdents returns, per internal package (by directory name), every
// name its files declare: functions and methods, types, values, and struct
// and interface fields.
func packageIdents(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	idents := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						names[n.Name.Name] = true
					case *ast.TypeSpec:
						names[n.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range n.Names {
							names[id.Name] = true
						}
					case *ast.Field:
						for _, id := range n.Names {
							names[id.Name] = true
						}
					}
					return true
				})
			}
		}
		idents[filepath.Base(dir)] = names
	}
	return idents
}

// commandFlags returns the flags each command under cmd/ defines: the name
// argument of every call into package flag.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	flags := map[string]map[string]bool{}
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		if flags[cmd] == nil {
			flags[cmd] = map[string]bool{}
		}
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
	return flags
}

// TestDocsNameWhatExists fails when README.md or DESIGN.md names a package,
// command, example, benchmark, command-line flag, internal package
// identifier, hypothesis or experiment id that is no longer in the tree, so a
// deletion cannot leave its documentation behind. A flag is a code span that
// starts with one (`-workers N`): it must be defined by a command named on
// the same line, or — prose wraps — by any command when the line names none.
// A span that is a command line (`rlscope-hyp -gate`) is held to that
// command's flags. A span's `pkg.Name.Field` is held to what internal/pkg
// declares, name by name, and its hypothesis ids to hypotheses.json. The ids
// an `rlscope-experiments -run` line names must be ids the experiment table
// renders.
func TestDocsNameWhatExists(t *testing.T) {
	benchmarks := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				benchmarks[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isDir := func(path string) bool {
		fi, err := os.Stat(path)
		return err == nil && fi.IsDir()
	}
	// The CI badge URL's organisation and repository.
	allowed := map[string]bool{"rlscope-repro": true}
	flags := commandFlags(t)
	idents := packageIdents(t)
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
						if names := idents[m[1]]; names != nil && !names[name] {
							t.Errorf("%s:%d names %s%s, but internal/%s declares no %s", doc, i+1, m[1], m[2], m[1], name)
							break
						}
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
