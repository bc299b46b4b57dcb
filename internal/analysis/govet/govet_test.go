package govet

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testLoader is shared so dependency packages type-check once per test run.
var testLoader = NewLoader()

// parseWants extracts `// want "regex" ["regex" ...]` expectations from the
// package's comments, keyed by (file, line).
func parseWants(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, raw := range splitQuoted(t, strings.TrimPrefix(text, "want ")) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, raw, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted or backquoted strings.
func splitQuoted(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("want expectation must be quoted: %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("unterminated want pattern: %q", s)
		}
		raw := s[:end+2]
		if quote == '"' {
			unq, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("bad want pattern %q: %v", raw, err)
			}
			out = append(out, unq)
		} else {
			out = append(out, raw[1:len(raw)-1])
		}
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// checkFixture loads a testdata package, runs the analyzers, and matches
// the diagnostics against the fixture's want comments exactly.
func checkFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := testLoader.Load(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, diags, parseWants(t, pkg))
}

// matchWants matches diagnostics against want expectations exactly: every
// diagnostic must match a want on its line, and every want must fire.
func matchWants(t *testing.T, diags []Diagnostic, wants map[string][]*regexp.Regexp) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: expected diagnostic matching %q did not fire", key, re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", Determinism)
}

func TestAtomicStateFixture(t *testing.T) {
	checkFixture(t, "atomicstate", AtomicState)
}

func TestCoreAffinityFixture(t *testing.T) {
	checkFixture(t, "coreaffinity", CoreAffinity)
}

func TestStubDisciplineFixture(t *testing.T) {
	checkFixture(t, "stubdiscipline", StubDiscipline)
}

func TestMissingDocFixture(t *testing.T) {
	checkFixture(t, "missingdoc", MissingDoc)
}

// TestThreadBodyFixture checks the analyzer on both sides of the test-file
// opt-in: the negative cases in fixture.go, through the plain package, and
// the positive cases in fixture_test.go, through the test variants.
func TestThreadBodyFixture(t *testing.T) {
	checkFixture(t, "threadbody", ThreadBody)
	dir := filepath.Join("testdata", "src", "threadbody")
	diags, err := TestDiagnostics(testLoader, dir, []*Analyzer{ThreadBody})
	if err != nil {
		t.Fatal(err)
	}
	variants, err := testLoader.LoadTests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 1 {
		t.Fatalf("LoadTests = %d variants; want 1 (the package with its in-package tests)", len(variants))
	}
	matchWants(t, diags, parseWants(t, variants[0]))
}

// TestRealPackagesClean locks in the `make lint` contract on the live tree:
// the kernel (with its atomicstate annotations) and the core runtime pass
// every analyzer, and their tests pass the ones that opt into test files.
func TestRealPackagesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages from source")
	}
	for _, dir := range []string{"../../kernel", "../../core"} {
		pkg, err := testLoader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		tdiags, err := TestDiagnostics(testLoader, dir, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range append(diags, tdiags...) {
			t.Errorf("%s", d)
		}
	}
}

// TestKernelAnnotationsPresent guards against the atomicstate annotations
// being dropped: the kernel package must declare at least the state and
// halted guarded fields, otherwise the analyzer silently checks nothing.
func TestKernelAnnotationsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages from source")
	}
	pkg, err := testLoader.Load("../../kernel")
	if err != nil {
		t.Fatal(err)
	}
	// Count annotations textually: the analyzer resolves them, this test
	// only asserts they exist.
	guarded := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, atomicStateMarker) {
					guarded++
				}
			}
		}
	}
	if guarded < 2 {
		t.Errorf("kernel declares %d atomicstate annotations, want >= 2 (state and halted)", guarded)
	}
}

func TestShadowBuiltinFixture(t *testing.T) {
	checkFixture(t, "shadowbuiltin", ShadowBuiltin)
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %v, %v", all, err)
	}
	one, err := ByName("determinism")
	if err != nil || len(one) != 1 || one[0] != Determinism {
		t.Fatalf("ByName(determinism) = %v, %v", one, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}
