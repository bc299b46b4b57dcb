// Package superglue's repository-level benchmarks regenerate every table
// and figure of the paper's evaluation as testing.B benchmarks:
//
//	Fig. 6(a) — BenchmarkTracking<Service>/{base,c3,superglue}
//	Fig. 6(b) — BenchmarkRecovery<Service>/{c3,superglue}
//	Fig. 6(c) — BenchmarkIDLCompile (plus `go run ./cmd/microbench -fig 6c`)
//	Table II  — BenchmarkSWIFICampaign (injections/sec; the table itself is
//	            `go run ./cmd/swifi`)
//	Fig. 7    — BenchmarkWebServer/{baseline,composite,c3,superglue,
//	            superglue-faults}, reporting req/s
//
// Run with: go test -bench=. -benchmem
package superglue

import (
	"testing"

	"superglue/internal/binding"
	"superglue/internal/codegen"
	"superglue/internal/experiments"
	"superglue/internal/idl"
	"superglue/internal/services/event"
	"superglue/internal/swifi"
	"superglue/internal/webserver"
)

// benchTracking is the Fig. 6(a) micro-benchmark for one service.
func benchTracking(b *testing.B, service string) {
	for _, kind := range binding.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			if err := experiments.RunMicrobench(service, kind, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTrackingSched(b *testing.B) { benchTracking(b, "sched") }
func BenchmarkTrackingMM(b *testing.B)    { benchTracking(b, "mm") }
func BenchmarkTrackingFS(b *testing.B)    { benchTracking(b, "ramfs") }
func BenchmarkTrackingLock(b *testing.B)  { benchTracking(b, "lock") }
func BenchmarkTrackingEvent(b *testing.B) { benchTracking(b, "event") }
func BenchmarkTrackingTimer(b *testing.B) { benchTracking(b, "timer") }

// benchRecovery is the Fig. 6(b) per-descriptor recovery benchmark: each
// iteration is one fault, µ-reboot, recovery walk, and redone operation.
func benchRecovery(b *testing.B, service string) {
	for _, kind := range binding.Kinds() {
		if !kind.Recovers() {
			continue
		}
		b.Run(kind.String(), func(b *testing.B) {
			if err := experiments.RunRecoveryBench(service, kind, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkRecoverySched(b *testing.B) { benchRecovery(b, "sched") }
func BenchmarkRecoveryMM(b *testing.B)    { benchRecovery(b, "mm") }
func BenchmarkRecoveryFS(b *testing.B)    { benchRecovery(b, "ramfs") }
func BenchmarkRecoveryLock(b *testing.B)  { benchRecovery(b, "lock") }
func BenchmarkRecoveryEvent(b *testing.B) { benchRecovery(b, "event") }
func BenchmarkRecoveryTimer(b *testing.B) { benchRecovery(b, "timer") }

// BenchmarkIDLCompile measures the full compiler pipeline (parse → IR →
// generate client + server stubs) for the Fig. 3 event specification.
func BenchmarkIDLCompile(b *testing.B) {
	src := event.IDLSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := idl.Parse("event", src)
		if err != nil {
			b.Fatal(err)
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codegen.Generate(ir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSWIFICampaign runs Table II's fault-injection trials (lock
// service) at b.N injections.
func BenchmarkSWIFICampaign(b *testing.B) {
	res, err := swifi.Run(swifi.Config{
		Service:  "lock",
		Workload: swifi.Workloads()["lock"],
		Iters:    3,
		Trials:   b.N,
		Seed:     2026,
		Profile:  swifi.Profiles()["lock"],
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*res.SuccessRate(), "%success")
	b.ReportMetric(100*res.ActivationRatio(), "%activation")
}

// BenchmarkWebServer runs each Fig. 7 bar at b.N requests (at least 64),
// the with-faults bar crashing a component every quarter of them.
func BenchmarkWebServer(b *testing.B) {
	for _, wv := range experiments.WebVariants {
		b.Run(wv.Name, func(b *testing.B) {
			n := max(b.N, 64)
			faultEvery := 0
			if wv.Faults {
				faultEvery = n/4 + 1
			}
			st, err := webserver.Run(webserver.Config{
				Variant:    wv.Variant,
				Requests:   n,
				Workers:    2,
				FaultEvery: faultEvery,
			})
			if err != nil {
				b.Fatal(err)
			}
			if st.Errors > 0 {
				b.Fatalf("%d request errors", st.Errors)
			}
			b.ReportMetric(st.Throughput, "req/s")
		})
	}
}

// BenchmarkKernelInvoke measures the bare component-invocation primitive,
// the substrate cost every stub comparison sits on. The scenario lives in
// experiments.KernelInvokeBench so `cmd/benchjson` measures the same thing.
func BenchmarkKernelInvoke(b *testing.B) {
	b.ReportAllocs()
	if err := experiments.KernelInvokeBench(b.N, b.ResetTimer); err != nil {
		b.Fatal(err)
	}
}
