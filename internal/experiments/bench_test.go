package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"superglue/internal/binding"
)

// TestBenchmarkRegistry pins the registry's shape: unique names, one
// Tracking row per service and binding kind, one Recovery row per service
// and recovering kind, a Probe row per recovering kind of each service
// with its own probe, one WebServer row per Fig. 7 bar, and a cores sweep
// above one core (one core is WebServer/superglue). (The Fig. 6 tests
// find every Tracking, Recovery and Probe row by name.)
func TestBenchmarkRegistry(t *testing.T) {
	count := make(map[string]int)
	seen := make(map[string]bool)
	for _, e := range Benchmarks() {
		if seen[e.Name] {
			t.Errorf("%s registered twice", e.Name)
		}
		seen[e.Name] = true
		for _, p := range []string{"Tracking", "Recovery", "Probe", "WebServer/"} {
			if strings.HasPrefix(e.Name, p) {
				count[p]++
			}
		}
	}
	recovering := len(slices.DeleteFunc(binding.Kinds(), func(k binding.Kind) bool { return !k.Recovers() }))
	ownProbes := len(slices.DeleteFunc(slices.Clone(serviceRows), func(s serviceRow) bool { return !s.ownProbe }))
	want := map[string]int{
		"Tracking":   len(serviceRows) * len(binding.Kinds()),
		"Recovery":   len(serviceRows) * recovering,
		"Probe":      ownProbes * recovering,
		"WebServer/": len(WebVariants),
	}
	for p, n := range want {
		if count[p] != n {
			t.Errorf("%d %s rows; want %d", count[p], p, n)
		}
	}
	if len(coresSweep) == 0 || slices.Min(coresSweep) <= 1 {
		t.Errorf("cores sweep %v; want core counts above 1", coresSweep)
	}
	for _, nc := range coresSweep {
		if !seen[fmt.Sprintf("WebServerThroughput/cores=%d", nc)] {
			t.Errorf("no WebServerThroughput/cores=%d row", nc)
		}
	}
	if names := Fig7Benchmarks(); len(names) != len(WebVariants) {
		t.Errorf("Fig7Benchmarks: %d rows; want one per Fig. 7 bar", len(names))
	}
}
