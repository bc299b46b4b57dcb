package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"superglue/internal/profiling"
)

// TestProfileFlags: -cpuprofile and -memprofile around a tiny campaign
// each leave a non-empty gzip-compressed pprof profile behind.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	rc := runConfig{
		trials: 4, seed: 2026, workers: 1, service: "lock", mode: "on-demand",
		shape: "legacy", cores: 1, replicas: 1, trace: true,
	}
	if err := inDir(t, dir, func() error {
		return profiling.Run(cpu, mem, func() error { return run(rc) })
	}); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			t.Fatalf("%s is not gzip-compressed: %v", filepath.Base(path), err)
		}
		n, err := io.Copy(io.Discard, zr)
		f.Close()
		if err != nil {
			t.Fatalf("%s: reading the profile: %v", filepath.Base(path), err)
		}
		if n == 0 {
			t.Errorf("%s holds an empty profile", filepath.Base(path))
		}
	}
}
