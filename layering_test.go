package rlscope

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
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
// that call a method or package function with one of the given names.
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
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
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
// cannot grow back unnoticed, and internal/trace exports no partitioner of
// its own again.
func TestOneSweepPath(t *testing.T) {
	fset := token.NewFileSet()
	callers := callersOf(parseNonTest(t, fset, filepath.Join("internal", "analysis")), "ComputeWindow", "ComputeWindowInto")
	if want := []string{"Incremental.sweep", "pipeline.sweep"}; !slices.Equal(callers, want) {
		t.Errorf("windowed sweep called from %v, want exactly %v", callers, want)
	}
	// Spelled in two halves so a grep for the deleted names stays empty.
	forbidIdents(t, fset, parseNonTest(t, fset, filepath.Join("internal", "trace")), "Shards", "Phase"+"Partition")
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
// beside analysis.MergeResult; and internal/experiments, the one package that
// fans independent jobs out, is the only non-test caller of a fan-out.
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
}

// docNames matches the names README.md and DESIGN.md use for things in the
// tree: an internal package, a command (by path or by binary name) and a
// benchmark function.
var docNames = regexp.MustCompile(`\binternal/[a-z0-9_]+|\bcmd/[a-z0-9-]+|\brlscope-[a-z0-9-]+|\bBenchmark[A-Z]\w*`)

// docSpans matches the code spans of one line of markdown, docFlag the flag
// a word of one spells (`-workers`, `-timing=false`, `-label k=v`), docIdent
// a qualified name one holds (`trace.Reader`, `overlap.Result.Merge(r)`): a
// package, then its dotted exported names.
var (
	docSpans = regexp.MustCompile("`[^`]+`")
	docFlag  = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	docIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)((?:\.[A-Z]\w*)+)`)
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
// command, benchmark, command-line flag or internal package identifier that
// is no longer in the tree, so a deletion cannot leave its documentation
// behind. A flag is a code span that starts with one (`-workers N`): it must
// be defined by a command named on the same line, or — prose wraps — by any
// command when the line names none. A span that is a command line
// (`rlscope-hyp -gate`) is held to that command's flags. A span's
// `pkg.Name.Field` is held to what internal/pkg declares, name by name.
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
			named := everyCommand
			if onLine := slices.DeleteFunc(docNames.FindAllString(line, -1), func(name string) bool { return flags[name] == nil }); len(onLine) > 0 {
				named = onLine
			}
			for _, span := range docSpans.FindAllString(line, -1) {
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
