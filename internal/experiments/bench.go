package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"superglue/internal/binding"
	"superglue/internal/cbuf"
	"superglue/internal/codegen"
	"superglue/internal/core"
	"superglue/internal/idl"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/storage"
	"superglue/internal/swifi"
	"superglue/internal/webserver"
)

// Bench is one registry entry.
type Bench struct {
	// Name is the row name: the BENCH_superglue.json row and the
	// sub-benchmark of BenchmarkSuperGlue (e.g. "TrackingLock/superglue").
	Name string
	// Fn performs b.N operations, resetting b's timer after any setup it
	// does not want timed.
	Fn func(b *testing.B) error
}

// coresSweep lists the simulated core counts of the
// WebServerThroughput/cores=N rows. One core is WebServer/superglue.
var coresSweep = []int{2, 4}

// benchRounds is the number of interleaved rounds of a full
// BENCH_superglue.json run (-short takes one).
const benchRounds = 5

// rowName names a service's Fig. 6 row of the given kind, e.g.
// rowName("Tracking", lock, binding.SuperGlue) = "TrackingLock/superglue".
func rowName(prefix string, svc serviceRow, kind binding.Kind) string {
	return fmt.Sprintf("%s%s/%v", prefix, svc.display, kind)
}

// opsRow is the registry row that times op on svc's rig under kind,
// after the rig's setup and prep.
func opsRow(prefix string, svc serviceRow, kind binding.Kind, op func(*opsRig, *kernel.Thread) error) Bench {
	return Bench{rowName(prefix, svc, kind), func(b *testing.B) error {
		return runOps(svc.name, kind, b.N, b.ResetTimer, op)
	}}
}

// Benchmarks returns the benchmark registry, the one list that names the
// repository's benchmarks, in its fixed order: the kernel, storage and
// compiler substrate; per service and binding kind, the Fig. 6(a)
// Tracking rows (one micro-op iteration) and the Fig. 6(b) Recovery rows
// (one fault, µ-reboot, recovery walk and redo), each followed by a
// Probe row (the recovery probe fault-free) where the service's probe is
// not its micro-op; the Fig. 7 WebServer rows and the SuperGlue server's
// cores sweep (one request); and a lock SWIFI campaign (one trial). `go
// test -bench` (BenchmarkSuperGlue in the repository root), cmd/benchjson,
// Fig6a/Fig6b and Fig7 all run it.
func Benchmarks() []Bench {
	out := []Bench{
		{"KernelInvoke", func(b *testing.B) error { return kernelInvokeBench(b, 1) }},
		{"ThreadSwitch", threadSwitchBench},
		{"KernelInvokeCrossCore", func(b *testing.B) error { return kernelInvokeBench(b, 2) }},
		{"StorageQuorumWrite", storageQuorumWriteBench},
		{"IDLCompile", idlCompileBench},
	}
	for _, svc := range serviceRows {
		for _, kind := range binding.Kinds() {
			out = append(out, opsRow("Tracking", svc, kind, (*opsRig).iterOp))
		}
	}
	for _, svc := range serviceRows {
		for _, kind := range binding.Kinds() {
			if kind.Recovers() {
				out = append(out, opsRow("Recovery", svc, kind, (*opsRig).faultThenProbe))
				if svc.ownProbe {
					out = append(out, opsRow("Probe", svc, kind, (*opsRig).probeOp))
				}
			}
		}
	}
	for _, wv := range WebVariants {
		out = append(out, Bench{"WebServer/" + wv.Name, func(b *testing.B) error {
			return webServerBench(b, webserver.Config{Variant: wv.Variant}, wv.Faults)
		}})
	}
	for _, nc := range coresSweep {
		out = append(out, Bench{fmt.Sprintf("WebServerThroughput/cores=%d", nc), func(b *testing.B) error {
			return webServerBench(b, webserver.Config{Variant: webserver.VariantSuperGlue, Cores: nc}, false)
		}})
	}
	return append(out, Bench{"SwifiCampaign/lock", swifiCampaignBench})
}

// RunBenchmarks measures every entry of rows once per round through
// testing.Benchmark, which collects garbage before every timed run and
// sizes b.N to about a second. Round r starts at row r, so no row always
// follows the same neighbour. The results come back in the order of
// rows, each summarised over the rounds.
func RunBenchmarks(rows []Bench, rounds int) ([]BenchResult, error) {
	rounds = max(rounds, 1)
	runs := make([][]testing.BenchmarkResult, len(rows))
	for r := 0; r < rounds; r++ {
		for j := range rows {
			i := (r + j) % len(rows)
			var err error
			res := testing.Benchmark(func(b *testing.B) {
				if err = rows[i].Fn(b); err != nil {
					b.FailNow()
				}
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rows[i].Name, err)
			}
			runs[i] = append(runs[i], res)
		}
	}
	out := make([]BenchResult, len(rows))
	for i, e := range rows {
		out[i] = summarize(e.Name, runs[i])
	}
	return out, nil
}

// summarize folds one row's per-round results into a BenchResult.
func summarize(name string, runs []testing.BenchmarkResult) BenchResult {
	out := BenchResult{Name: name, Samples: len(runs), Runs: runs}
	ns := make([]float64, len(runs))
	extra := make(map[string][]float64)
	var allocs, bytes uint64
	for i, r := range runs {
		ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		out.Iterations += r.N
		allocs += r.MemAllocs
		bytes += r.MemBytes
		for k, v := range r.Extra {
			// Each key's samples keep round order whatever order the keys come in.
			extra[k] = append(extra[k], v) //sgvet:ignore determinism
		}
	}
	out.MedianNsPerOp = median(ns) // sorts ns
	out.MinNsPerOp, out.MaxNsPerOp = ns[0], ns[len(ns)-1]
	out.AllocsPerOp = int64(allocs / uint64(out.Iterations))
	out.BytesPerOp = int64(bytes / uint64(out.Iterations))
	if len(extra) > 0 {
		out.Extra = make(map[string]float64, len(extra))
		for k, vs := range extra {
			// One write per key: the map comes out the same in any order.
			out.Extra[k] = median(vs) //sgvet:ignore determinism
		}
	}
	return out
}

// kernelInvokeBench performs b.N invocations of the event component's
// trigger function from core 0 of a machine of cores cores. On more than
// one, the component is homed on the last core, so every invocation takes
// the cross-core migration path. The hoisted argument slice keeps the
// steady-state invocation allocation-free.
func kernelInvokeBench(b *testing.B, cores int) error {
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
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Invoke(t, comp, event.FnTrigger, args...); err != nil {
				return err
			}
		}
		return nil
	})
}

// threadSwitchBench runs b.N Block/Wakeup round trips between two threads
// on one core: two simulated thread switches per round trip, the
// scheduler layer under every blocking call. Neither thread can see an
// error short of a kernel bug that halts the machine, which Run reports.
func threadSwitchBench(b *testing.B) error {
	k := kernel.New()
	var pong kernel.ThreadID
	done := false
	ping, err := k.CreateThread(nil, "ping", 10, func(t *kernel.Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
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

// storageQuorumWriteBench measures one replicated storage write: a
// SaveSlice appended to the write-ahead log of all three replicas of a
// quorum store (checksum seal, per-replica apply, periodic checkpoint
// amortized in). It is the storage-side cost the -replicas 3 campaigns
// add over the paper's trusted single copy (docs/STORAGE.md).
func storageQuorumWriteBench(b *testing.B) error {
	cm := cbuf.NewManager(0)
	s := storage.NewReplicated(cm, 3)
	s.Attach(kernel.ComponentID(42))
	data := []byte("quorum-write-payload")
	const owner = 9
	buf, err := cm.Alloc(owner, len(data))
	if err != nil {
		return err
	}
	if err := cm.Write(buf, owner, 0, data); err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 64 rotating resource ids keep descriptor state bounded while the
		// WAL/checkpoint cycle runs at its default cadence.
		if err := s.SaveSlice(1, kernel.Word(i%64), 0, buf, 0, len(data)); err != nil {
			return err
		}
	}
	return nil
}

// idlCompileBench runs the full compiler pipeline (parse → IR → generate
// the typed client) over the Fig. 3 event specification.
func idlCompileBench(b *testing.B) error {
	src := event.IDLSource()
	for i := 0; i < b.N; i++ {
		spec, err := idl.Parse("event", src)
		if err != nil {
			return err
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			return err
		}
		if _, err := codegen.Generate(ir); err != nil {
			return err
		}
	}
	return nil
}

// webServerBench serves b.N requests (setup timed with them) through
// runWebServer and reports req/s on the server's serving clock and, on
// several cores, migrations per request.
func webServerBench(b *testing.B, cfg webserver.Config, faults bool) error {
	st, err := runWebServer(cfg, b.N, faults)
	if err != nil {
		return err
	}
	b.ReportMetric(st.Throughput, "req/s")
	if cfg.Cores > 1 {
		b.ReportMetric(float64(st.Migrations)/float64(b.N), "migrations/op")
	}
	return nil
}

// runWebServer serves n requests on two workers of cfg's server, with
// faults crashing a component every n/10+1 of them: nine crashes a run
// once n reaches 100, about Fig. 7's ten. A request error is an error.
func runWebServer(cfg webserver.Config, n int, faults bool) (*webserver.Stats, error) {
	cfg.Requests = n
	cfg.Workers = 2
	if faults {
		cfg.FaultEvery = n/10 + 1
	}
	st, err := webserver.Run(cfg)
	if err != nil {
		return nil, err
	}
	if st.Errors > 0 {
		return nil, fmt.Errorf("%d request errors", st.Errors)
	}
	return st, nil
}

// swifiCampaignBench runs a b.N-trial register-flip campaign against the
// lock service on one worker, end to end: dry run, planning, trials and
// classification.
func swifiCampaignBench(b *testing.B) error {
	res, err := swifi.Run(swifi.Config{
		Service:  "lock",
		Workload: swifi.Workloads()["lock"],
		Iters:    3,
		Trials:   b.N,
		Seed:     2026,
		Profile:  swifi.Profiles()["lock"],
		Workers:  1,
	})
	if err != nil {
		return err
	}
	if res.Injected != b.N {
		return fmt.Errorf("%d of %d trials ran", res.Injected, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	return nil
}

// BenchResult is one registry row measured over interleaved rounds.
type BenchResult struct {
	// Name is the registry entry's name (e.g. "TrackingLock/superglue").
	Name string `json:"name"`
	// Samples is the number of rounds, one testing.B run each.
	Samples int `json:"samples"`
	// Iterations is the total iteration count over the rounds.
	Iterations int `json:"iterations"`
	// MedianNsPerOp is the median over the rounds of each round's wall
	// time per operation in nanoseconds; MinNsPerOp and MaxNsPerOp are
	// the fastest and slowest round.
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	MinNsPerOp    float64 `json:"min_ns_per_op"`
	MaxNsPerOp    float64 `json:"max_ns_per_op"`
	// AllocsPerOp / BytesPerOp are the heap cost per operation over every
	// round's timed iterations.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Extra carries the median over the rounds of each benchmark-specific
	// metric (e.g. "req/s").
	Extra map[string]float64 `json:"extra,omitempty"`
	// Runs holds the rounds' results in round order, for figures that
	// take a ratio of two rows within each round (Fig7).
	Runs []testing.BenchmarkResult `json:"-"`
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
	// CoresSweep lists the simulated core counts of the
	// WebServerThroughput/cores=N rows.
	CoresSweep []int `json:"cores_sweep"`
	// Results holds one row per registry entry, in registry order.
	Results []BenchResult `json:"results"`
}

// WriteBenchJSON runs the registry over benchRounds interleaved rounds
// (one when short), one row at a time so no two rows contend for the
// cores being measured, and writes the report to path.
func WriteBenchJSON(path string, short bool) (*BenchReport, error) {
	rep := &BenchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// The report's date, not a measurement.
		Timestamp:  time.Now().UTC().Format(time.RFC3339), //sgvet:ignore determinism
		Short:      short,
		CoresSweep: coresSweep,
	}
	rounds := benchRounds
	if short {
		rounds = 1
	}
	var err error
	if rep.Results, err = RunBenchmarks(Benchmarks(), rounds); err != nil {
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
