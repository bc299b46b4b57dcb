package kernel_test

import (
	"testing"

	"superglue/internal/experiments"
)

// BenchmarkThreadSwitch times a Block/Wakeup round trip between two
// threads on one core: two simulated switches per iteration. The body is
// experiments.ThreadSwitchBench, so `cmd/benchjson` measures the same
// thing (the ThreadSwitch row of BENCH_superglue.json).
func BenchmarkThreadSwitch(b *testing.B) {
	if err := experiments.ThreadSwitchBench(b.N, b.ResetTimer); err != nil {
		b.Fatal(err)
	}
}
