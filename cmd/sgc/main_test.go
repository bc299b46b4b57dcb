package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superglue/internal/codegen"
	"superglue/internal/experiments"
)

// writeTempSG drops a small valid specification into a temp dir.
func writeTempSG(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "counter.sg")
	src := `
service_global_info = { desc_has_parent = solo };
sm_creation(ctr_alloc);
sm_terminal(ctr_free);
sm_transition(ctr_alloc, ctr_incr);
sm_transition(ctr_incr,  ctr_incr);
sm_transition(ctr_alloc, ctr_free);
sm_transition(ctr_incr,  ctr_free);

desc_data_retval(long, ctrid)
ctr_alloc(desc_data(componentid_t compid));
long ctr_incr(componentid_t compid, desc(long ctrid));
int  ctr_free(desc(long ctrid));
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompilesFileToDirectory(t *testing.T) {
	sg := writeTempSG(t)
	outDir := t.TempDir()
	if err := run([]string{"-o", outDir, sg}, os.Stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range []string{codegen.ClientFile} {
		path := filepath.Join(outDir, "gencounter", f)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing output %s: %v", path, err)
		}
		if !strings.Contains(string(raw), "DO NOT EDIT") {
			t.Errorf("%s missing generated marker", path)
		}
		if !strings.Contains(string(raw), "package gencounter") {
			t.Errorf("%s has wrong package", path)
		}
	}
}

func TestRunBuiltinNeedsNoFiles(t *testing.T) {
	if err := run([]string{"-builtin", "-loc"}, os.Stdout); err != nil {
		t.Fatalf("run -builtin: %v", err)
	}
}

// TestLOCAgreesWithFig6c: `sgc -builtin -loc` and `microbench -fig 6c`
// print the same IDL and generated line counts for every service.
func TestLOCAgreesWithFig6c(t *testing.T) {
	out, err := capture(t, func(w *os.File) error { return run([]string{"-builtin", "-loc"}, w) })
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiments.Fig6c()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want := fmt.Sprintf("%-8s IDL %3d LOC → generated %4d LOC", r.Service, r.IDLLOC, r.GeneratedLOC)
		if !strings.Contains(out, want) {
			t.Errorf("sgc -loc disagrees with Fig. 6(c) on %s: want %q in\n%s", r.Service, want, out)
		}
	}
}

func TestRunRejectsNoInput(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Fatal("run with no input succeeded")
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.sg")
	if err := os.WriteFile(path, []byte("int f(desc(long id));"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, os.Stdout); err == nil {
		t.Fatal("run accepted a model-invalid spec")
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	if err := run([]string{"/nonexistent/x.sg"}, os.Stdout); err == nil {
		t.Fatal("run accepted a missing file")
	}
}

// capture runs fn with a pipe-backed *os.File and returns what it wrote.
func capture(t *testing.T, fn func(w *os.File) error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := make([]byte, 1<<16)
		for {
			n, err := r.Read(b)
			buf.WriteString(string(b[:n]))
			if err != nil {
				return
			}
		}
	}()
	ferr := fn(w)
	_ = w.Close()
	<-done
	return buf.String(), ferr
}

func TestVetBuiltinClean(t *testing.T) {
	out, err := capture(t, func(w *os.File) error {
		return runVet([]string{"-builtin"}, w)
	})
	if err != nil {
		t.Fatalf("vet -builtin: %v\n%s", err, out)
	}
	if !strings.Contains(out, "[SG109]") {
		t.Errorf("vet -builtin should print the mechanism-coverage reports:\n%s", out)
	}
}

func TestVetFlagsLeakySpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "leaky.sg")
	// Valid model, but creation without a terminal function: descriptors
	// can never be closed (SG103, warning severity) — vet must fail.
	src := `
service_global_info = { desc_has_parent = solo };
sm_creation(ctr_alloc);
sm_reset(ctr_free);
sm_transition(ctr_alloc, ctr_incr);
sm_transition(ctr_incr,  ctr_incr);
sm_transition(ctr_alloc, ctr_free);
sm_transition(ctr_incr,  ctr_free);

desc_data_retval(long, ctrid)
ctr_alloc(desc_data(componentid_t compid));
long ctr_incr(componentid_t compid, desc(long ctrid));
int  ctr_free(desc(long ctrid));
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func(w *os.File) error {
		return runVet([]string{path}, w)
	})
	if err == nil {
		t.Fatalf("vet accepted a leaky spec:\n%s", out)
	}
	if !strings.Contains(out, "SG103") {
		t.Errorf("vet output should carry SG103:\n%s", out)
	}
}

func TestVetGenDrift(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-builtin", "-o", dir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func(w *os.File) error {
		return runVet([]string{"-gen", "-gendir", dir}, w)
	}); err != nil {
		t.Fatalf("vet -gen on a fresh tree: %v", err)
	}
	victim := filepath.Join(dir, "gensched", codegen.ClientFile)
	if err := os.WriteFile(victim, []byte("package gensched\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func(w *os.File) error {
		return runVet([]string{"-gen", "-gendir", dir}, w)
	})
	if err == nil {
		t.Fatal("vet -gen missed a tampered stub")
	}
	if !strings.Contains(out, "gensched") || !strings.Contains(out, "stale") {
		t.Errorf("drift output should name the stale file:\n%s", out)
	}
}

func TestVetRejectsNoInput(t *testing.T) {
	if err := runVet(nil, os.Stdout); err == nil {
		t.Fatal("vet with no input succeeded")
	}
}

func TestRunFormatNormalizes(t *testing.T) {
	sg := writeTempSG(t)
	var buf strings.Builder
	// run writes to an *os.File; use a pipe to capture.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := make([]byte, 1<<16)
		for {
			n, err := r.Read(b)
			buf.WriteString(string(b[:n]))
			if err != nil {
				return
			}
		}
	}()
	if err := run([]string{"-format", sg}, w); err != nil {
		t.Fatalf("run -format: %v", err)
	}
	_ = w.Close()
	<-done
	out := buf.String()
	for _, want := range []string{"sm_creation(ctr_alloc);", "desc(long ctrid)", "desc_data_retval(long, ctrid)"} {
		if !strings.Contains(out, want) {
			t.Errorf("normalized output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckStdoutIsReproducible: two `sgc check -builtin` runs print
// byte-identical verdicts on stdout, so a run can be diffed against
// another commit's; the wall-clock time per spec goes to stderr.
func TestCheckStdoutIsReproducible(t *testing.T) {
	var outs [2]string
	for i := range outs {
		var timing string
		out, err := capture(t, func(w *os.File) error {
			var err error
			timing, err = capture(t, func(tw *os.File) error {
				return runCheck([]string{"-builtin", "-trajectory"}, w, tw)
			})
			return err
		})
		if err != nil {
			t.Fatalf("sgc check -builtin: %v", err)
		}
		if got, want := strings.Count(timing, ": checked in "), strings.Count(out, " episodes\n"); got == 0 || got != want {
			t.Fatalf("stderr has %d timing lines for %d specs:\n%s", got, want, timing)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Fatalf("two sgc check -builtin runs differ on stdout:\n%s\n---\n%s", outs[0], outs[1])
	}
}
