// Command webbench regenerates Fig. 7: web-server throughput under the
// plain ("Apache-like") baseline, the raw component substrate, C³,
// SuperGlue, and SuperGlue with a component crash injected periodically.
// It also runs the with-faults server once more, untimed, and prints its
// completion timeline showing the recovery dips.
//
// Usage:
//
//	webbench [-count 5] [-timeline=false]
//	webbench -listen 127.0.0.1:8080 [-fault-every 2000] [-workers 2] [-cores 2] [-replicas 3]   # live HTTP server
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// (internal/profiling), in either mode.
//
// Fig. 7 is computed from the benchmark registry's WebServer/<bar> rows
// (experiments.Fig7Benchmarks), run through testing.B in -count
// interleaved rounds, about a second per row per round. The ratios the
// paper reports (composite/apache, superglue/composite, ...) are taken
// within each round, so host-speed drift between rounds cancels out of
// them.
//
// With -listen, webbench serves real HTTP through the simulated component
// OS until interrupted — point a browser or `ab` at it. It serves the
// SuperGlue variant on the same machine the benchmark runs (webserver.Run
// and webserver.Serve share it); -workers, -cores, -replicas and
// -fault-every configure it and apply to -listen only.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"superglue/internal/experiments"
	"superglue/internal/profiling"
	"superglue/internal/webserver"
)

func main() {
	count := flag.Int("count", 5, "interleaved rounds of the registry's WebServer rows")
	workers := flag.Int("workers", 2, "server worker threads (-listen only)")
	cores := flag.Int("cores", 1, "simulated cores; servers spread over cores 1..N-1, execution stays serialized (-listen only)")
	replicas := flag.Int("replicas", 1, "storage replicas; >1 runs the replicated quorum store (-listen only)")
	faultEvery := flag.Int("fault-every", 0, "inject one component crash per N completions; 0 disables (-listen only)")
	timeline := flag.Bool("timeline", true, "print the with-faults completion timeline")
	listen := flag.String("listen", "", "serve real HTTP through the SuperGlue variant on this address instead of benchmarking")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the run")
	flag.Parse()

	err := profiling.Run(*cpuProfile, *memProfile, func() error {
		if *listen != "" {
			ln, err := net.Listen("tcp", *listen)
			if err != nil {
				return err
			}
			fmt.Printf("serving %v through the simulated component OS on http://%s (%d workers, %d cores, %d storage replicas)",
				webserver.VariantSuperGlue, ln.Addr(), *workers, *cores, *replicas)
			if *faultEvery > 0 {
				fmt.Printf(" (one component crash per %d requests)", *faultEvery)
			}
			fmt.Println()
			return webserver.Serve(ln, webserver.Config{
				Variant:    webserver.VariantSuperGlue,
				Workers:    *workers,
				Cores:      *cores,
				Replicas:   *replicas,
				FaultEvery: *faultEvery,
			})
		}
		results, err := experiments.RunBenchmarks(experiments.Fig7Benchmarks(), *count)
		if err != nil {
			return err
		}
		res, err := experiments.Fig7(results)
		if err != nil {
			return err
		}
		experiments.RenderFig7(os.Stdout, res)
		if *timeline {
			st, err := experiments.Fig7Timeline()
			if err != nil {
				return err
			}
			experiments.RenderFig7Timeline(os.Stdout, st)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "webbench:", err)
		os.Exit(1)
	}
}
