// Command perfbench is the repository's benchmark: three workloads driven
// through the public entry points webserver.Run and swifi.Run, reporting
// end-to-end metrics (--trace 0) or a per-layer ledger from a separate
// traced run (--trace 1). See README.md in this directory.
//
//	perfbench --workload web-steady --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// sizes sets how much work one repetition does.
type sizes struct {
	steadyRequests int // web-steady requests per repetition
	faultRequests  int // web-faults requests per repetition
	trials         int // swifi-traced trials per service per repetition
	replayRequests int // requests the traced run replays, once untraced and once with spans
	minReps        int // repetitions measured even past the deadline
}

// fullSizes make each repetition last about a quarter of a second (web) or
// a second and a half (swifi), so a 40-second run takes its median over
// dozens of repetitions spread across the whole window. Longer web
// repetitions were no steadier, and they lengthen the GC mark slices the
// stall metrics see, because the request stream and the timeline a run
// keeps grow with them.
var fullSizes = sizes{steadyRequests: 50000, faultRequests: 25000, trials: 500, replayRequests: 20000, minReps: 5}

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"web-steady", "web-faults", "swifi-traced"}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repOut is one repetition's outcome: operations attempted and failed, and
// the end-to-end metrics it measured.
type repOut struct {
	ops, failed int
	metrics     map[string]float64
	// gaps and stalls are the sizes of the repetition's two timing
	// populations.
	gaps, stalls int
}

// endToEnd lists the end-to-end metrics with their units and how each
// scales with host speed (see atNominal); every workload reports every one
// of them (README.md defines each per workload).
var endToEnd = []struct {
	name, unit string
	scale      int
}{
	{"ops_s", "1/s", -1},
	{"gap_p50_us", "us", 1},
	{"gap_p99_us", "us", 1},
	{"stall_p50_us", "us", 1},
	{"stall_p90_us", "us", 1},
	{"alloc_b_per_op", "B", 0},
	{"peak_rss_mb", "MB", 0},
	{"recovered_ratio", "ratio", 0},
	{"setup_s", "s", 1},
}

// prepare builds a workload's inputs from the seed and returns its
// repetition function, plus the one-off checks a run makes besides the
// per-repetition gates.
func prepare(name string, seed int64, sz sizes) (func() (repOut, error), error) {
	switch name {
	case "web-steady", "web-faults":
		requests := sz.steadyRequests
		if name == "web-faults" {
			requests = sz.faultRequests
		}
		cfg := webConfig(name, siteFor(seed), requests)
		if err := checkSite(cfg.Files, cfg.Replicas); err != nil {
			return nil, err
		}
		return func() (repOut, error) { return webRep(name, cfg) }, nil
	case "swifi-traced":
		cfgs := campaignConfigs(seed, sz.trials, true, 1)
		var first []table2Row
		return func() (repOut, error) {
			out, rows, err := swifiRep(cfgs, first)
			if first == nil {
				first = rows
			}
			return out, err
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// measure runs one workload at GOMAXPROCS 1: a discarded warm-up
// repetition, then repetitions until the window closes (at least
// sz.minReps), each after a forced GC. The host-speed probe runs before the
// first repetition and after each one; a repetition's timing metrics are
// scaled to nominal host speed by the geometric mean of the probes on
// either side of it. Every metric is the median over the measured
// repetitions. The scaled and raw spreads and the host speed are printed
// to log.
func measure(name string, seed int64, window time.Duration, sz sizes, log io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	rep, err := prepare(name, seed, sz)
	if err != nil {
		return res, err
	}
	runtime.GC()
	if _, err := rep(); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	scaled := make(map[string][]float64)
	raw := make(map[string][]float64)
	speeds := []float64{hostSpeed()}
	deadline := time.Now().Add(window)
	var out repOut
	for n := 0; n < sz.minReps || time.Now().Before(deadline); n++ {
		runtime.GC()
		resetPeakRSS()
		out, err = rep()
		res.Attempted += out.ops
		res.Failed += out.failed
		if err != nil {
			return res, err
		}
		out.metrics["peak_rss_mb"] = peakRSSMB()
		speeds = append(speeds, hostSpeed())
		s := math.Sqrt(speeds[n] * speeds[n+1])
		for _, m := range endToEnd {
			if v, ok := out.metrics[m.name]; ok {
				raw[m.name] = append(raw[m.name], v)
				scaled[m.name] = append(scaled[m.name], atNominal(v, m.scale, s))
			}
		}
	}
	fmt.Fprintf(log, "%s seed %d: %d repetitions; per repetition %d gaps (highest percentile with %d beyond: p%g), %d stalls (p%g)\n",
		name, seed, len(raw["ops_s"]), out.gaps, minBeyond, highestPercentile(out.gaps), out.stalls, highestPercentile(out.stalls))
	printSpread(log, "host speed (probe / nominal)", "", speeds)
	for _, m := range endToEnd {
		xs := scaled[m.name]
		if len(xs) == 0 {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: median(xs), Unit: m.unit}
		printSpread(log, m.name, m.unit, xs)
		if m.scale != 0 {
			printSpread(log, "  raw", m.unit, raw[m.name])
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printSpread prints a metric's median and range over the repetitions of
// one run.
func printSpread(w io.Writer, name, unit string, xs []float64) {
	med := median(xs)
	lo, hi := minMax(xs)
	fmt.Fprintf(w, "%-34s %14.6g %-6s n=%-4d min %.6g max %.6g\n", name, med, unit, len(xs), lo, hi)
}

func minMax(xs []float64) (lo, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

func main() {
	name := flag.String("workload", "", "workload: web-steady, web-faults or swifi-traced")
	seed := flag.Int64("seed", 1, "input seed: the web site (web-*) or the campaign seed (swifi-traced)")
	seconds := flag.Int("seconds", 0, "measurement window in seconds (required; run.py passes BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from the traced run")
	spansOut := flag.String("spans", ".bench_build/spans.jsonl", "where the traced run writes its spans")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The simulator runs one simulated thread at a time: with more Ps every
	// simulated thread switch becomes a cross-P goroutine wakeup, and the
	// benchmark would measure the Go scheduler instead.
	runtime.GOMAXPROCS(1)
	meter := newStealMeter()
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = ledger(*name, *seed, fullSizes, *spansOut, os.Stdout)
	} else {
		res, err = measure(*name, *seed, time.Duration(*seconds)*time.Second, fullSizes, os.Stdout)
	}
	host, _ := json.Marshal(meter.host())
	fmt.Printf("host %s\n", host)
	if err != nil {
		// A failed gate leaves no result: the run measured something else
		// than the workload it names.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v (attempted %d, failed %d)\n", *name, err, res.Attempted, res.Failed)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
