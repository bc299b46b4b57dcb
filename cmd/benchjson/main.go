// Command benchjson runs the benchmark trajectory — the bare invocation
// primitive, the six Fig. 6(a) tracking micro-benchmarks across the three
// stub bindings, and the Fig. 7 web-server variants — and writes the
// measurements to a JSON file (default BENCH_superglue.json), so every
// commit can leave a machine-readable perf trail:
//
//	go run ./cmd/benchjson [-o BENCH_superglue.json] [-short] [-workers N]
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// or `make bench-json`. -workers parallelizes the traced SWIFI campaigns
// that produce the recovery breakdown (the wall-clock benchmarks stay
// serial so their timings are uncontended); campaign results are
// byte-identical for any worker count. -cpuprofile and -memprofile write
// runtime/pprof profiles of the whole run (internal/profiling).
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
	workers := flag.Int("workers", 0, "SWIFI campaign parallelism (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the benchmarks finish")
	flag.Parse()

	var rep *experiments.BenchReport
	err := profiling.Run(*cpuProfile, *memProfile, func() error {
		var err error
		rep, err = experiments.WriteBenchJSON(*out, *short, *workers)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, campaign workers %d\n",
		rep.NumCPU, rep.GOMAXPROCS, rep.Workers)
	for _, r := range rep.Results {
		switch {
		case r.NsPerOp > 0:
			fmt.Printf("%-28s %12.1f ns/op %6d B/op %4d allocs/op\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		case r.Extra["req/s"] > 0:
			fmt.Printf("%-28s %12.0f req/s\n", r.Name, r.Extra["req/s"])
		}
	}
	fmt.Println("wrote", *out)
}
