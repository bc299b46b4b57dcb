// Package govet is a small, dependency-free static-analysis framework for
// the SuperGlue tree, modeled on golang.org/x/tools/go/analysis but built
// entirely on the standard library (go/parser + go/types with the source
// importer). It hosts seven analyzers that enforce contracts the compiler
// cannot express:
//
//   - determinism: internal/kernel, internal/core, internal/swifi and
//     internal/codegen must be replay-deterministic. Flags wall-clock reads
//     (time.Now), the global math/rand source, and map iterations whose
//     order can leak into output (returns, outer writes, printing) unless
//     the loop only appends to slices that are sorted afterwards.
//
//   - atomicstate: fields annotated with a
//     `//sgvet:atomicstate accessors=f,g` doc comment may only be touched
//     from the listed accessor functions. Used to fence the kernel's two
//     atomic words, the packed (epoch|faulty) component state and the
//     halted flag, behind their helpers.
//
//   - stubdiscipline: no Invoke/Upcall/Dispatch call while the inbox mutex
//     is held (the scheduler drains the inbox under it, so re-entry
//     deadlocks), and stub files (the engine's cstub.go and sstub.go, the
//     generated client.go) must not call kernel topology mutators — stubs
//     are data-plane code.
//
//   - shadowbuiltin: no declaration may shadow a predeclared identifier
//     (`cap := …`, a parameter named len). Shadowing silently disables
//     the builtin for the rest of the scope; the SWIFI campaign engine
//     shipped exactly this bug.
//
//   - coreaffinity: core placement happens only through the sanctioned
//     control-plane calls (core.System.PlaceServer, CreateThreadOn), never
//     via raw SetComponentCore outside the kernel/core packages and never
//     from stub (data-plane) files.
//
//   - threadbody: no runtime.Goexit — nor t.Fatal, t.FailNow or t.Skip,
//     which call it — inside a function literal passed as a simulated
//     thread's entry (CreateThread, CreateThreadOn): thread bodies run on
//     Kernel.Run's goroutine, so Run would never return. The one analyzer
//     that also runs over _test.go files (Analyzer.Tests).
//
//   - missingdoc: every exported identifier (and the package itself) must
//     carry a doc comment, so the runtime/kernel/observability API stays
//     godoc-complete. Generated files are exempt.
//
// A diagnostic can be suppressed with a trailing or preceding comment of
// the form `//sgvet:ignore <analyzer>` when the flagged pattern is known
// to be benign; suppressions should carry a justification in prose.
package govet

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Tests opts the analyzer into _test.go files: drivers also run it over
	// the package's test variants (see Loader.LoadTests and TestDiagnostics).
	Tests bool
}

// All returns every registered analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, AtomicState, StubDiscipline, ShadowBuiltin, MissingDoc, CoreAffinity, ThreadBody}
}

// ByName resolves a comma-separated analyzer list; an empty spec means all.
func ByName(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is a parsed and fully type-checked package directory.
type Package struct {
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks package directories. One Loader shares a
// FileSet and a source importer, so dependency packages (including the
// standard library) are type-checked once and cached across Load calls.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// ErrNoSource reports a directory with no non-test Go files.
var ErrNoSource = errors.New("no Go source files")

// Load parses the non-test .go files of dir and type-checks them against
// their real dependencies.
func (l *Loader) Load(dir string) (*Package, error) {
	src, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(src) == 0 {
		return nil, fmt.Errorf("%s: %w", dir, ErrNoSource)
	}
	return l.check(dir, src)
}

// LoadTests type-checks the test variants of dir: the package together with
// its in-package _test.go files, and the external _test package, each when
// present. A directory without test files has none. An external test
// package sees the package under test without its _test.go files.
func (l *Loader) LoadTests(dir string) ([]*Package, error) {
	src, tests, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var inPkg, external []*ast.File
	for _, f := range tests {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var variants [][]*ast.File
	if len(inPkg) > 0 {
		variants = append(variants, append(src, inPkg...))
	}
	if len(external) > 0 {
		variants = append(variants, external)
	}
	var out []*Package
	for _, files := range variants {
		pkg, err := l.check(dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// parseDir parses the .go files of dir that the default build context
// selects (build tags, GOOS/GOARCH suffixes), split into non-test and test
// files, each in name order.
func (l *Loader) parseDir(dir string) (src, tests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(n, "_test.go") {
			tests = append(tests, f)
		} else {
			src = append(src, f)
		}
	}
	return src, tests, nil
}

// check type-checks one package's files against their real dependencies.
func (l *Loader) check(dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(dir, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", dir, err)
	}
	return &Package{Dir: dir, Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Run applies the analyzers to pkg and returns the diagnostics that are not
// suppressed by //sgvet:ignore comments, sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = suppress(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// TestDiagnostics runs the analyzers that opt into test files over the
// test variants of dir and returns their diagnostics in _test.go files
// (the variants' non-test files are the plain package's, which Run covers).
func TestDiagnostics(l *Loader, dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var opted []*Analyzer
	for _, a := range analyzers {
		if a.Tests {
			opted = append(opted, a)
		}
	}
	if len(opted) == 0 {
		return nil, nil
	}
	variants, err := l.LoadTests(dir)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, pkg := range variants {
		diags, err := Run(pkg, opted)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			if strings.HasSuffix(d.Pos.Filename, "_test.go") {
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// suppress drops diagnostics covered by an `//sgvet:ignore <analyzers>`
// comment on the same line or the line directly above the finding.
func suppress(pkg *Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		name string
	}
	ignored := make(map[key]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "sgvet:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, "sgvet:ignore")
				for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					ignored[key{pos.Filename, pos.Line, name}] = true
					ignored[key{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	if len(ignored) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		if ignored[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions and indirect calls through function values.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// calleeName returns the syntactic name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
