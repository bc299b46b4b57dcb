// Command benchjson runs the benchmark registry (experiments.Benchmarks:
// the kernel, storage and compiler substrate, the Fig. 6(a) tracking and
// Fig. 6(b) recovery rows under each stub binding, the Fig. 7 web-server
// variants and a SWIFI campaign) in five interleaved rounds, one under
// -short, one row at a time so their timings are uncontended, and writes
// each row's median, min, max and sample count to a JSON file (default
// BENCH_superglue.json), so every commit can leave a machine-readable
// perf trail:
//
//	go run ./cmd/benchjson [-o BENCH_superglue.json] [-short]
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// or `make bench-json`. The per-mechanism recovery breakdown of the
// traced SWIFI campaigns is deterministic per seed, so it is no part of
// this timing trail: `swifi -trace` prints it. -cpuprofile and
// -memprofile write runtime/pprof profiles of the whole run
// (internal/profiling).
package main

import (
	"flag"
	"fmt"
	"os"

	"superglue/internal/experiments"
	"superglue/internal/profiling"
)

func main() {
	out := flag.String("o", "BENCH_superglue.json", "output file")
	short := flag.Bool("short", false, "trim workloads for a CI smoke run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the benchmarks finish")
	flag.Parse()

	var rep *experiments.BenchReport
	err := profiling.Run(*cpuProfile, *memProfile, func() error {
		var err error
		rep, err = experiments.WriteBenchJSON(*out, *short)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d\n", rep.NumCPU, rep.GOMAXPROCS)
	for _, r := range rep.Results {
		fmt.Printf("%-28s %12.1f ns/op (%.1f–%.1f, n=%d) %6d B/op %4d allocs/op",
			r.Name, r.MedianNsPerOp, r.MinNsPerOp, r.MaxNsPerOp, r.Samples, r.BytesPerOp, r.AllocsPerOp)
		if rps := r.Extra["req/s"]; rps > 0 {
			fmt.Printf(" %10.0f req/s", rps)
		}
		fmt.Println()
	}
	fmt.Println("wrote", *out)
}
