package driftcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superglue/internal/codegen"
	"superglue/internal/idl"
	"superglue/internal/services/builtin"
)

// writeFreshTree generates all built-in clients into dir, mirroring
// `sgc -builtin -o dir`.
func writeFreshTree(t *testing.T, dir string) {
	t.Helper()
	for _, b := range builtin.Sources() {
		spec, err := idl.Parse(b.Service, b.IDL)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			t.Fatal(err)
		}
		files, err := codegen.Generate(ir)
		if err != nil {
			t.Fatal(err)
		}
		pkgDir := filepath.Join(dir, ir.Package())
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for fname, content := range files {
			if err := os.WriteFile(filepath.Join(pkgDir, fname), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFreshTreeHasNoDrift(t *testing.T) {
	dir := t.TempDir()
	writeFreshTree(t, dir)
	drifts, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 0 {
		t.Fatalf("fresh tree reports drift: %v", drifts)
	}
}

// TestMutatedStubIsCaught is the core drift guarantee: hand-editing a
// generated file makes the check fail, naming exactly that file.
func TestMutatedStubIsCaught(t *testing.T) {
	dir := t.TempDir()
	writeFreshTree(t, dir)

	victim := filepath.Join(dir, "genevent", codegen.ClientFile)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "func ", "// tampered\nfunc ", 1)
	if tampered == string(data) {
		t.Fatal("mutation did not change the file")
	}
	if err := os.WriteFile(victim, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	drifts, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 {
		t.Fatalf("drifts = %v, want exactly the tampered file", drifts)
	}
	if drifts[0].Path != filepath.Join("genevent", codegen.ClientFile) {
		t.Errorf("drift path = %q", drifts[0].Path)
	}
	if !strings.Contains(drifts[0].Reason, "stale") || !strings.Contains(drifts[0].Reason, "line") {
		t.Errorf("stale drift should cite the first differing line: %q", drifts[0].Reason)
	}
}

func TestMissingStubIsCaught(t *testing.T) {
	dir := t.TempDir()
	writeFreshTree(t, dir)
	if err := os.Remove(filepath.Join(dir, "genlock", codegen.ClientFile)); err != nil {
		t.Fatal(err)
	}
	drifts, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || drifts[0].Reason != "missing" {
		t.Fatalf("drifts = %v, want one missing-file drift", drifts)
	}
}

// TestExtraFilesAreCaught: a Go file or directory the generator no longer
// emits is drift too (a leftover stub file, a retired support package, a
// hand-written file beside the generated packages); test files are not.
func TestExtraFilesAreCaught(t *testing.T) {
	dir := t.TempDir()
	writeFreshTree(t, dir)
	for _, f := range []string{
		filepath.Join("genlock", "server_stub.go"),
		filepath.Join("genrt", "genrt.go"),
		"workloads.go",
		filepath.Join("genlock", "client_test.go"),
		"gen_test.go",
		filepath.Join("genlock", "README"),
	} {
		path := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	drifts, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, d := range drifts {
		got[d.Path] = d.Reason
	}
	want := map[string]string{
		filepath.Join("genlock", "server_stub.go"): "extra",
		"genrt":        "extra",
		"workloads.go": "extra",
	}
	if len(got) != len(want) {
		t.Fatalf("drifts = %v, want exactly %v", drifts, want)
	}
	for path, reason := range want {
		if got[path] != reason {
			t.Errorf("drift for %s = %q, want %q (all: %v)", path, got[path], reason, drifts)
		}
	}
}

// TestCommittedTree double-checks the real repository state from this
// package's vantage point (the same check internal/gen's golden test and
// `sgc vet -gen` run).
func TestCommittedTree(t *testing.T) {
	drifts, err := Check(filepath.Join("..", "..", "gen"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		t.Error(d)
	}
}

func TestFirstDiffLine(t *testing.T) {
	cases := []struct {
		got, want string
		line      int
	}{
		{"a\nb\nc", "a\nb\nc", 4}, // equal: diff position is one past the end
		{"a\nX\nc", "a\nb\nc", 2},
		{"a", "a\nb", 2},
		{"X", "a", 1},
	}
	for _, tc := range cases {
		if got := firstDiffLine(tc.got, tc.want); got != tc.line {
			t.Errorf("firstDiffLine(%q, %q) = %d, want %d", tc.got, tc.want, got, tc.line)
		}
	}
}
