package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"superglue/internal/binding"
	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/swifi"
	"superglue/internal/webserver"
)

// This file is the benchmark-trajectory harness: it runs the headline
// benchmarks (the bare invocation primitive and thread switch, the six
// Fig. 6(a) tracking benchmarks, and the Fig. 7 web-server variants)
// through testing.Benchmark and serializes the measurements to
// BENCH_superglue.json, so successive commits leave a machine-readable perf
// trail (`make bench-json`).

// BenchResult is one benchmark measurement.
type BenchResult struct {
	// Name is the benchmark identifier, testing-style
	// (e.g. "KernelInvoke", "TrackingLock/superglue").
	Name string `json:"name"`
	// Iterations is the iteration count the harness settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp / BytesPerOp are the steady-state heap cost per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Extra carries benchmark-specific metrics (e.g. "req/s").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchReport is the top-level schema of BENCH_superglue.json.
type BenchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS record the host parallelism the run had
	// available — without them a "no parallel speedup" result on a 1-CPU
	// host is indistinguishable from a scheduling regression.
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`
	Short      bool   `json:"short"`
	// Workers is the resolved SWIFI campaign parallelism (the -workers
	// flag, with 0 resolved to GOMAXPROCS like the campaign engine does).
	Workers int `json:"workers"`
	// CoresSweep lists the simulated core counts of the
	// WebServerThroughput/cores=N rows.
	CoresSweep []int         `json:"cores_sweep"`
	Results    []BenchResult `json:"results"`
	// Recovery embeds the traced SWIFI campaigns' per-mechanism
	// recovery-latency breakdowns (counts + virtual-time histograms per
	// R0/T0/T1/D0/D1/G0/G1/U0).
	Recovery []RecoveryBreakdown `json:"recovery_breakdown,omitempty"`
}

// KernelInvokeBench builds the minimal system of the bare-invocation
// benchmark (one event component) and performs n invocations of the
// trigger function on a simulated thread. start, if non-nil, runs right
// before the timed loop (pass b.ResetTimer so setup cost is excluded).
// The argument slice is hoisted out of the loop, so the steady-state
// invocation allocates nothing.
func KernelInvokeBench(n int, start func()) error { return kernelInvokeBench(1, n, start) }

// KernelInvokeCrossCoreBench is KernelInvokeBench on a two-core machine
// with the event component homed on core 1 while the benchmark thread
// lives on core 0: every invocation round-trips through the cross-core
// migration path (park, dispatch on the server's core, park, dispatch
// back), so the measurement is the full synchronous cross-core invocation
// cost rather than the same-core fast path.
func KernelInvokeCrossCoreBench(n int, start func()) error { return kernelInvokeBench(2, n, start) }

// kernelInvokeBench is KernelInvokeBench on a machine of cores cores; on
// more than one, the event component is homed on the last.
func kernelInvokeBench(cores, n int, start func()) error {
	sys, err := core.NewSystemWithCores(core.OnDemand, cores)
	if err != nil {
		return err
	}
	comp, err := event.Register(sys)
	if err != nil {
		return err
	}
	if cores > 1 {
		if err := sys.PlaceServer(comp, cores-1); err != nil {
			return err
		}
	}
	k := sys.Kernel()
	return runBench(k, func(t *kernel.Thread) error {
		id, err := k.Invoke(t, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			return err
		}
		args := []kernel.Word{1, id}
		if start != nil {
			start()
		}
		for i := 0; i < n; i++ {
			if _, err := k.Invoke(t, comp, event.FnTrigger, args...); err != nil {
				return err
			}
		}
		return nil
	})
}

// ThreadSwitchBench runs n Block/Wakeup round trips between two threads on
// one core — two simulated thread switches per round trip, the scheduler
// layer under every blocking call. start, if non-nil, runs right before the
// timed loop. Neither thread can see an error short of a kernel bug that
// halts the machine, which Run reports.
func ThreadSwitchBench(n int, start func()) error {
	k := kernel.New()
	var pong kernel.ThreadID
	done := false
	ping, err := k.CreateThread(nil, "ping", 10, func(t *kernel.Thread) {
		if start != nil {
			start()
		}
		for i := 0; i < n; i++ {
			_ = k.Wakeup(t, pong)
			_ = k.Block(t)
		}
		done = true
		_ = k.Wakeup(t, pong)
	})
	if err != nil {
		return err
	}
	if pong, err = k.CreateThread(nil, "pong", 10, func(t *kernel.Thread) {
		for {
			_ = k.Block(t)
			if done {
				return
			}
			_ = k.Wakeup(t, ping)
		}
	}); err != nil {
		return err
	}
	return k.Run()
}

// benchToResult converts a testing.BenchmarkResult.
func benchToResult(name string, r testing.BenchmarkResult) BenchResult {
	out := BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		out.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			out.Extra[k] = v
		}
	}
	return out
}

// RunBenchJSON runs the benchmark trajectory and returns the report.
// short trims the web-server request counts for CI smoke runs. workers
// bounds the parallelism of the traced SWIFI campaigns (the wall-clock
// benchmarks themselves stay serial: they are timing measurements and
// concurrent runs would contend for the cores being measured).
func RunBenchJSON(short bool, workers int) (*BenchReport, error) {
	resolvedWorkers := workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	rep := &BenchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Short:      short,
		Workers:    resolvedWorkers,
	}
	var failed error
	bench := func(name string, fn func(b *testing.B)) {
		if failed != nil {
			return
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		rep.Results = append(rep.Results, benchToResult(name, r))
	}

	bench("KernelInvoke", func(b *testing.B) {
		if err := KernelInvokeBench(b.N, b.ResetTimer); err != nil {
			failed = fmt.Errorf("KernelInvoke: %w", err)
			b.SkipNow()
		}
	})

	bench("ThreadSwitch", func(b *testing.B) {
		if err := ThreadSwitchBench(b.N, b.ResetTimer); err != nil {
			failed = fmt.Errorf("ThreadSwitch: %w", err)
			b.SkipNow()
		}
	})

	bench("KernelInvokeCrossCore", func(b *testing.B) {
		if err := KernelInvokeCrossCoreBench(b.N, b.ResetTimer); err != nil {
			failed = fmt.Errorf("KernelInvokeCrossCore: %w", err)
			b.SkipNow()
		}
	})

	bench("StorageQuorumWrite", func(b *testing.B) {
		if err := StorageQuorumWriteBench(b.N, b.ResetTimer); err != nil {
			failed = fmt.Errorf("StorageQuorumWrite: %w", err)
			b.SkipNow()
		}
	})

	for _, svc := range serviceRows {
		for _, kind := range binding.Kinds() {
			name := fmt.Sprintf("Tracking%s/%v", svc.display, kind)
			bench(name, func(b *testing.B) {
				if err := RunMicrobench(svc.name, kind, b.N); err != nil {
					failed = fmt.Errorf("%s: %w", name, err)
					b.SkipNow()
				}
			})
		}
	}

	requests := 20000
	if short {
		requests = 2000
	}
	for _, wv := range WebVariants {
		if failed != nil {
			break
		}
		faultEvery := 0
		if wv.Faults {
			faultEvery = requests/4 + 1
		}
		st, err := webserver.Run(webserver.Config{
			Variant:    wv.Variant,
			Requests:   requests,
			Workers:    2,
			FaultEvery: faultEvery,
		})
		if err != nil {
			failed = fmt.Errorf("WebServer/%s: %w", wv.Name, err)
			break
		}
		if st.Errors > 0 {
			failed = fmt.Errorf("WebServer/%s: %d request errors", wv.Name, st.Errors)
			break
		}
		rep.Results = append(rep.Results, BenchResult{
			Name:       "WebServer/" + wv.Name,
			Iterations: requests,
			Extra:      map[string]float64{"req/s": st.Throughput},
		})
	}
	if failed != nil {
		return nil, failed
	}

	// Cores scaling: the SuperGlue web server at 1, 2, and 4 simulated
	// cores. Execution stays globally serialized (one simulated thread runs
	// at a time), so these rows measure the *cost* of core-affine placement
	// — cross-core migration parks on every server invocation — not
	// wall-clock parallelism; see EXPERIMENTS.md for the honest framing.
	rep.CoresSweep = []int{1, 2, 4}
	for _, nc := range rep.CoresSweep {
		if failed != nil {
			break
		}
		st, err := webserver.Run(webserver.Config{
			Variant:  webserver.VariantSuperGlue,
			Requests: requests,
			Workers:  2,
			Cores:    nc,
		})
		if err != nil {
			failed = fmt.Errorf("WebServerThroughput/cores=%d: %w", nc, err)
			break
		}
		if st.Errors > 0 {
			failed = fmt.Errorf("WebServerThroughput/cores=%d: %d request errors", nc, st.Errors)
			break
		}
		rep.Results = append(rep.Results, BenchResult{
			Name:       fmt.Sprintf("WebServerThroughput/cores=%d", nc),
			Iterations: requests,
			Extra: map[string]float64{
				"req/s":      st.Throughput,
				"migrations": float64(st.Migrations),
			},
		})
	}
	if failed != nil {
		return nil, failed
	}

	// Campaign throughput: the injection-path counterpart of the
	// invocation-path benchmarks. One legacy register-flip campaign
	// against the lock service, wall-clocked end to end (dry run,
	// planning, trial execution, classification), reported as trials/sec
	// so regressions in the campaign engine are caught like ns/op ones.
	campTrials := 400
	if short {
		campTrials = 80
	}
	campStart := time.Now()
	campRes, err := swifi.Run(swifi.Config{
		Service:  "lock",
		Workload: swifi.Workloads()["lock"],
		Iters:    3,
		Trials:   campTrials,
		Seed:     2026,
		Profile:  swifi.Profiles()["lock"],
		Workers:  workers,
	})
	if err != nil {
		return nil, fmt.Errorf("SwifiCampaign/lock: %w", err)
	}
	if campRes.Injected != campTrials {
		return nil, fmt.Errorf("SwifiCampaign/lock: %d of %d trials ran", campRes.Injected, campTrials)
	}
	elapsed := time.Since(campStart).Seconds()
	rep.Results = append(rep.Results, BenchResult{
		Name:       "SwifiCampaign/lock",
		Iterations: campTrials,
		Extra:      map[string]float64{"trials/s": float64(campTrials) / elapsed},
	})

	// Traced SWIFI campaigns: the recovery-latency breakdown per mechanism.
	// Short runs keep on-demand mode only; full runs add the eager-mode
	// campaigns, which exercise the T0 trigger.
	trials := 120
	if short {
		trials = 30
	}
	breakdown, err := RecoveryBreakdowns(trials, 2026, !short, workers)
	if err != nil {
		return nil, err
	}
	rep.Recovery = breakdown
	return rep, nil
}

// WriteBenchJSON runs the trajectory and writes the report to path.
func WriteBenchJSON(path string, short bool, workers int) (*BenchReport, error) {
	rep, err := RunBenchJSON(short, workers)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}
