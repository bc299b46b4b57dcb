// Package superglue's repository-level benchmarks are the registry in
// internal/experiments (experiments.Benchmarks), which cmd/benchjson and
// `cmd/microbench -fig 6a/6b` run too. BenchmarkSuperGlue runs every
// entry as a sub-benchmark named as its BENCH_superglue.json row:
//
//	Fig. 6(a) — BenchmarkSuperGlue/Tracking<Service>/{base,c3,superglue}
//	Fig. 6(b) — BenchmarkSuperGlue/Recovery<Service>/{c3,superglue}
//	            (and ProbeEvent/{c3,superglue}, event's fault-free probe)
//	Fig. 6(c) — BenchmarkSuperGlue/IDLCompile (the table itself is
//	            `go run ./cmd/microbench -fig 6c`)
//	Table II  — BenchmarkSuperGlue/SwifiCampaign/lock (trials/s; the table
//	            itself is `go run ./cmd/swifi`)
//	Fig. 7    — BenchmarkSuperGlue/WebServer/{baseline,composite,c3,
//	            superglue,superglue-faults} and
//	            BenchmarkSuperGlue/WebServerThroughput/cores={1,2,4} (req/s)
//	substrate — BenchmarkSuperGlue/{KernelInvoke,ThreadSwitch,
//	            KernelInvokeCrossCore,StorageQuorumWrite}
//
// Run with: go test -run '^$' -bench SuperGlue/TrackingLock
package superglue

import (
	"testing"

	"superglue/internal/experiments"
)

// BenchmarkSuperGlue runs the benchmark registry, one sub-benchmark per
// entry, in registry order.
func BenchmarkSuperGlue(b *testing.B) {
	for _, e := range experiments.Benchmarks() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			if err := e.Fn(b); err != nil {
				b.Fatal(err)
			}
		})
	}
}
