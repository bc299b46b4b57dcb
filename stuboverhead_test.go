package superglue

import (
	"slices"
	"testing"
	"time"

	"superglue/internal/binding"
	"superglue/internal/experiments"
)

// TestStubOverheadRatio guards the Fig. 6(a) infrastructure-overhead gap:
// the full SuperGlue stub (descriptor tracking + state-machine validation
// + recovery plumbing) must stay within 1.4× of the base (no-stub) cost
// for the sched micro-op. The paper's measured overhead is ~26% on ia32
// (§V-B); this guard is looser because the simulator's base path is
// itself only a few map operations, but it fails if a regression reopens
// the gap the stub optimizations closed: kept-argument gating, tracker
// lookup cache, precompiled server-stub dispatch records, and the
// bind-once client calls (core.BoundCall) plus hold-free per-thread
// tracking that took the measured ratio from ~1.35× to ~1.15×.
func TestStubOverheadRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock ratio guard skipped under the race detector: it instruments the stub path more heavily than the base path, so the ratio would measure the detector")
	}
	const (
		iters   = 300_000
		samples = 9
	)
	// Base and SuperGlue runs alternate, and the ratio is taken per round:
	// a slow phase of the host lands on both sides of one round, and the
	// median of the per-round ratios ignores the rounds where it did not
	// (a 2-CPU host running other test packages in parallel). Per-run
	// setup (system boot + one thread) is amortized over 300k iterations.
	measure := func(kind binding.Kind) time.Duration {
		start := time.Now()
		if err := experiments.RunMicrobench("sched", kind, iters); err != nil {
			t.Fatalf("RunMicrobench(sched, %v): %v", kind, err)
		}
		return time.Since(start)
	}
	ratios := make([]float64, samples)
	for i := range ratios {
		base := measure(binding.Base)
		ratios[i] = float64(measure(binding.SuperGlue)) / float64(base)
	}
	slices.Sort(ratios)
	ratio := ratios[samples/2]
	t.Logf("sched micro-op: median per-round ratio %.2fx (budget 1.40x), rounds %.2f", ratio, ratios)
	if ratio > 1.4 {
		t.Fatalf("superglue stub overhead ratio %.2fx exceeds the 1.4x budget (sorted per-round ratios %.2f)",
			ratio, ratios)
	}
}
