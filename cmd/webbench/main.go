// Command webbench regenerates Fig. 7: web-server throughput under the
// plain ("Apache-like") baseline, the raw component substrate, C³,
// SuperGlue, and SuperGlue with a component crash injected periodically.
// The with-faults run also prints a completion timeline showing the
// recovery dips.
//
// Usage:
//
//	webbench [-requests 50000] [-repeats 5] [-workers 2] [-cores 2] [-parallel 1] [-fault-every 5000]
//	webbench -listen 127.0.0.1:8080 [-fault-every 2000]   # live HTTP server
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// (internal/profiling), in either mode.
//
// Each of the -repeats rounds runs every variant once, starting one
// variant later than the round before, and the ratios the paper reports
// (composite/apache, superglue/composite, ...) are taken within each
// round, so host-speed drift between rounds cancels out of them.
//
// -parallel runs rounds concurrently on the shared pool (internal/pool,
// the same fan-out the SWIFI campaign engine uses). Runs are wall-clock
// throughput measurements, so keep the default 1 for reported numbers
// and raise it only for smoke runs.
//
// With -listen, webbench serves real HTTP through the simulated component
// OS (SuperGlue variant) until interrupted — point a browser or `ab` at it;
// with -fault-every, components keep crashing and recovering under load.
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
	requests := flag.Int("requests", 50000, "requests per run (ab sends 50000)")
	repeats := flag.Int("repeats", 5, "interleaved rounds, each running every variant once (medians and per-round ratios reported)")
	workers := flag.Int("workers", 2, "server worker threads")
	cores := flag.Int("cores", 1, "simulated cores (servers spread over cores 1..N-1; execution stays serialized)")
	replicas := flag.Int("replicas", 1, "storage replicas (>1 runs the replicated quorum store)")
	parallel := flag.Int("parallel", 1, "concurrent rounds (smoke runs only; contends with the measurement)")
	faultEvery := flag.Int("fault-every", 0, "inject one component crash per N completions (default requests/10; 0 disables in -listen mode)")
	timeline := flag.Bool("timeline", true, "print the with-faults completion timeline")
	listen := flag.String("listen", "", "serve real HTTP on this address instead of benchmarking")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the run")
	flag.Parse()

	err := profiling.Run(*cpuProfile, *memProfile, func() error {
		if *listen != "" {
			ln, err := net.Listen("tcp", *listen)
			if err != nil {
				return err
			}
			fmt.Printf("serving through the simulated component OS on http://%s", ln.Addr())
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
		res, err := experiments.Fig7(experiments.Fig7Config{
			Requests:   *requests,
			Repeats:    *repeats,
			Workers:    *workers,
			Cores:      *cores,
			Replicas:   *replicas,
			FaultEvery: *faultEvery,
			Parallel:   *parallel,
		})
		if err != nil {
			return err
		}
		experiments.RenderFig7(os.Stdout, res)
		if *timeline {
			experiments.RenderFig7Timeline(os.Stdout, res)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "webbench:", err)
		os.Exit(1)
	}
}
