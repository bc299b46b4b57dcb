// Package driftcheck re-runs the IDL compiler over the built-in service
// specifications and diffs the output against the committed generated
// packages. A generated client edited by hand, a generator change shipped
// without regenerating, or a file the generator no longer emits shows up
// as drift. `sgc vet -gen` and `make lint` run this check so the tree
// property "internal/gen is exactly `sgc -builtin -o internal/gen`" is
// enforced, not assumed. Test files are not generated and never drift.
package driftcheck

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"superglue/internal/codegen"
	"superglue/internal/idl"
	"superglue/internal/services/builtin"
)

// Drift describes one committed file that disagrees with the generator.
type Drift struct {
	// Path is the offending file, relative to the gen directory root.
	Path string
	// Reason is "missing", "extra" (a Go file or directory the generator
	// does not emit) or "stale"; stale drifts carry the first differing
	// line.
	Reason string
}

// String renders the drift finding with its remediation command.
func (d Drift) String() string {
	return fmt.Sprintf("%s: %s (regenerate with `go run ./cmd/sgc -builtin -o internal/gen`)", d.Path, d.Reason)
}

// Check regenerates every built-in service's client and compares it with
// the files under genDir. It returns one Drift per mismatched, missing or
// extra file; an empty slice means the committed tree matches the
// generator.
func Check(genDir string) ([]Drift, error) {
	var drifts []Drift
	// emitted maps each generated package directory to the file names the
	// generator writes there.
	emitted := make(map[string]map[string]bool)
	for _, b := range builtin.Sources() {
		spec, err := idl.Parse(b.Service, b.IDL)
		if err != nil {
			return nil, fmt.Errorf("driftcheck: %s: %w", b.Service, err)
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			return nil, fmt.Errorf("driftcheck: %s: %w", b.Service, err)
		}
		files, err := codegen.Generate(ir)
		if err != nil {
			return nil, fmt.Errorf("driftcheck: %s: %w", b.Service, err)
		}
		names := make([]string, 0, len(files))
		for fname := range files {
			names = append(names, fname)
		}
		sort.Strings(names)
		emitted[ir.Package()] = make(map[string]bool)
		for _, fname := range names {
			emitted[ir.Package()][fname] = true
			rel := filepath.Join(ir.Package(), fname)
			got, err := os.ReadFile(filepath.Join(genDir, rel))
			if os.IsNotExist(err) {
				drifts = append(drifts, Drift{Path: rel, Reason: "missing"})
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("driftcheck: %w", err)
			}
			if want := files[fname]; string(got) != want {
				drifts = append(drifts, Drift{
					Path:   rel,
					Reason: fmt.Sprintf("stale: first difference at line %d", firstDiffLine(string(got), want)),
				})
			}
		}
	}
	extra, err := extras(genDir, emitted)
	if err != nil {
		return nil, fmt.Errorf("driftcheck: %w", err)
	}
	return append(drifts, extra...), nil
}

// extras reports what genDir holds beyond the generator's output: a
// directory that is not a generated package, and a non-test Go file the
// generator does not emit (at the root or inside a generated package).
func extras(genDir string, emitted map[string]map[string]bool) ([]Drift, error) {
	if _, err := os.Stat(genDir); os.IsNotExist(err) {
		return nil, nil // every generated file is already reported missing
	}
	var drifts []Drift
	err := filepath.WalkDir(genDir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(genDir, path)
		if err != nil || rel == "." {
			return err
		}
		if e.IsDir() {
			if emitted[rel] == nil {
				drifts = append(drifts, Drift{Path: rel, Reason: "extra"})
				return fs.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if !emitted[filepath.Dir(rel)][name] {
			drifts = append(drifts, Drift{Path: rel, Reason: "extra"})
		}
		return nil
	})
	return drifts, err
}

// firstDiffLine returns the 1-based line number where got and want first
// disagree.
func firstDiffLine(got, want string) int {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return i + 1
		}
	}
	if len(g) < len(w) {
		return len(g) + 1
	}
	return len(w) + 1
}
