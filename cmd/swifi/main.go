// Command swifi runs the SWIFI fault-injection campaign of Table II:
// register bit-flips injected into each system-level service while its
// §V-B workload runs, with outcomes classified as recovered, segfault,
// propagated, other (latent), degraded, or undetected.
//
// Usage:
//
//	swifi [-trials 500] [-seed 2026] [-workers N] [-service sched|mm|ramfs|lock|event|timer] [-watchdog] [-prime] [-trace] [-trace-out trace.json] [-v]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -watchdog enables the kernel watchdog for every trial, converting
// component-attributable hangs into recoverable component faults. -prime
// runs the paired Table II′ experiment instead: each service's campaign
// twice from the same seed, watchdog off vs on, reporting how many hang
// injections were reclassified from "not recovered (other)" to
// recovered/degraded. -trace records structured fault/recovery traces
// (internal/obs) across every trial and prints a per-mechanism recovery
// breakdown after each campaign; -trace-out additionally writes each
// campaign's full trace snapshot to <service>.<trace-out> as JSON.
// -workers shards each campaign's trials over a worker pool and runs the
// per-service campaigns concurrently; for a fixed seed the output is
// byte-identical for any worker count (default: GOMAXPROCS).
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles
// of the whole run (the heap profile once the campaigns have finished),
// for `go tool pprof`; they do not change the output.
//
// The shaped campaigns of the typed fault taxonomy are selected with
// -shape correlated|storm|during-recovery (the default, legacy, is the
// paper's single-bit-flip campaign). -kinds restricts the fault-kind pool
// (comma-separated, e.g. "message-loss,storage-crash"), -storm-faults
// sets the per-trial burst size of -shape storm, and -policy installs a
// supervision strategy (one-for-one, rest-for-one, all-for-one) as a
// root supervisor over every server in each trial's system. Shaped
// campaigns render per-kind outcome columns after the Table II rows.
//
// Fleet-scale campaigns (streaming, resumable, shardable):
//
//	swifi -checkpoint ckpt.bin [-checkpoint-every K] [-resume] [-halt-after N]
//	swifi -shard i/n -shard-out shard.bin
//	swifi -merge <service>.shard0of2.shard.bin <service>.shard1of2.shard.bin ...
//
// -checkpoint persists each campaign's rolling state to
// <service>.<file> every K committed trials (and at completion);
// -resume continues from the persisted cursor — an interrupted-then-
// resumed campaign's output is byte-identical to an uninterrupted run.
// -halt-after deliberately stops each campaign after N newly committed
// trials (checkpoint written, exit status 3): the deterministic "kill
// it midway" used by the fleet-smoke CI check. -shard i/n runs only the
// i-th of n contiguous trial ranges and -shard-out persists the shard's
// state to <service>.shard<i>of<n>.<file>; -merge folds shard files
// (grouped by service) back into the canonical campaign and renders the
// same tables the single-process run would — byte-identically. Campaign
// memory is O(workers): per-trial records are discarded unless -v needs
// them, and the merged trace stream is trimmed as it rolls.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"superglue/internal/core"
	"superglue/internal/experiments"
	"superglue/internal/fault"
	"superglue/internal/pool"
	"superglue/internal/profiling"
	"superglue/internal/swifi"
)

func main() {
	trials := flag.Int("trials", 500, "injections per service")
	seed := flag.Int64("seed", 2026, "campaign seed (reproducible)")
	service := flag.String("service", "", "run a single service's campaign (default: all)")
	mode := flag.String("mode", "on-demand", "recovery mode: on-demand or eager")
	workers := flag.Int("workers", 0, "trial/campaign parallelism (0 = GOMAXPROCS); output is identical for any value")
	watchdog := flag.Bool("watchdog", false, "enable the kernel watchdog in every trial")
	prime := flag.Bool("prime", false, "run the paired Table II' watchdog-off/on comparison")
	trace := flag.Bool("trace", false, "record structured traces and print the per-mechanism recovery breakdown")
	traceOut := flag.String("trace-out", "", "write each campaign's trace snapshot to <service>.<file> (implies -trace)")
	shape := flag.String("shape", "legacy", "campaign shape: legacy, correlated, storm, or during-recovery")
	kinds := flag.String("kinds", "", "comma-separated fault-kind pool for shaped campaigns (default: all kinds)")
	stormFaults := flag.Int("storm-faults", 0, "faults per storm trial (0 = default burst size)")
	policy := flag.String("policy", "", "supervision policy per trial: legacy, one-for-one, rest-for-one, or all-for-one")
	cores := flag.Int("cores", 1, "simulated cores per trial machine (>1 places the target on core 1: cross-core invocations)")
	replicas := flag.Int("replicas", 1, "storage replicas per trial machine (>1 makes storage kinds land inside the replicated store)")
	multicoreKinds := flag.Bool("multicore-kinds", false, "add the migration and cross-core-invocation kinds to shaped campaigns' pool")
	checkpoint := flag.String("checkpoint", "", "persist each campaign's rolling state to <service>.<file> (enables -resume and -halt-after)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "committed trials between checkpoint writes (0 = default)")
	resume := flag.Bool("resume", false, "continue each campaign from its -checkpoint cursor")
	haltAfter := flag.Int("halt-after", 0, "stop each campaign after N newly committed trials (checkpoint written, exit 3)")
	shard := flag.String("shard", "", "run one contiguous trial shard, as i/n (e.g. 0/4)")
	shardOut := flag.String("shard-out", "", "persist the shard's state to <service>.shard<i>of<n>.<file>")
	merge := flag.Bool("merge", false, "fold the shard files given as arguments into the canonical campaign output")
	verbose := flag.Bool("v", false, "print each non-recovered trial")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the campaigns finish")
	flag.Parse()

	err := profiling.Run(*cpuProfile, *memProfile, func() error {
		switch {
		case *merge:
			return runMerge(flag.Args(), *traceOut)
		case *prime:
			return runPrime(*trials, *seed, *workers, *service)
		default:
			return run(runConfig{
				trials: *trials, seed: *seed, workers: *workers,
				service: *service, mode: *mode, watchdog: *watchdog,
				trace: *trace || *traceOut != "", traceOut: *traceOut,
				shape: *shape, kinds: *kinds, stormFaults: *stormFaults,
				policy: *policy, cores: *cores, replicas: *replicas, multicoreKinds: *multicoreKinds,
				checkpoint: *checkpoint, checkpointEvery: *checkpointEvery,
				resume: *resume, haltAfter: *haltAfter,
				shard: *shard, shardOut: *shardOut,
				verbose: *verbose,
			})
		}
	})
	if errors.Is(err, swifi.ErrHalted) {
		fmt.Fprintln(os.Stderr, "swifi:", err)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swifi:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	trials          int
	seed            int64
	workers         int
	service         string
	mode            string
	watchdog        bool
	trace           bool
	traceOut        string
	shape           string
	kinds           string
	stormFaults     int
	policy          string
	cores           int
	replicas        int
	multicoreKinds  bool
	checkpoint      string
	checkpointEvery int
	resume          bool
	haltAfter       int
	shard           string
	shardOut        string
	verbose         bool
}

// parseShardSpec resolves "-shard i/n" ("" means unsharded).
func parseShardSpec(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &count); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/4)", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q: index must be in [0,%d)", s, count)
	}
	return index, count, nil
}

// parseKinds resolves a comma-separated kind list ("" means the default
// pool).
func parseKinds(s string) ([]fault.Kind, error) {
	if s == "" {
		return nil, nil
	}
	var kinds []fault.Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := fault.ParseKind(name)
		if !ok || k == fault.KindUnknown {
			return nil, fmt.Errorf("unknown fault kind %q", name)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

func run(rc runConfig) error {
	recMode := core.OnDemand
	switch rc.mode {
	case "on-demand", "":
	case "eager":
		recMode = core.Eager
	default:
		return fmt.Errorf("unknown recovery mode %q", rc.mode)
	}
	shape, ok := swifi.ParseShape(rc.shape)
	if !ok {
		return fmt.Errorf("unknown campaign shape %q", rc.shape)
	}
	kinds, err := parseKinds(rc.kinds)
	if err != nil {
		return err
	}
	if rc.multicoreKinds && kinds == nil {
		kinds = swifi.MulticoreKinds()
	}
	shardIdx, shardCount, err := parseShardSpec(rc.shard)
	if err != nil {
		return err
	}
	targets := swifi.Targets()
	if rc.service != "" {
		if _, ok := swifi.Workloads()[rc.service]; !ok {
			return fmt.Errorf("unknown service %q", rc.service)
		}
		targets = []string{rc.service}
	}
	// The per-service campaigns run concurrently and each campaign shards
	// its trials over the same worker bound; results land in fixed slots,
	// so the rendered tables are in Table II order regardless of timing.
	results := make([]*swifi.Result, len(targets))
	shardPaths := make([]string, len(targets))
	err = pool.Run(len(targets), rc.workers, func(i int) error {
		cfg := swifi.Config{
			Service:     targets[i],
			Workload:    swifi.Workloads()[targets[i]],
			Iters:       5,
			Trials:      rc.trials,
			Seed:        rc.seed,
			Profile:     swifi.Profiles()[targets[i]],
			Mode:        recMode,
			Watchdog:    rc.watchdog,
			Trace:       rc.trace,
			Workers:     rc.workers,
			Shape:       shape,
			Kinds:       kinds,
			StormFaults: rc.stormFaults,
			Policy:      rc.policy,
			Cores:       rc.cores,
			Replicas:    rc.replicas,
			// Fleet-scale orchestration: per-service durable files, and
			// O(workers) memory unless -v needs the per-trial records.
			CheckpointEvery: rc.checkpointEvery,
			Resume:          rc.resume,
			HaltAfter:       rc.haltAfter,
			Shard:           shardIdx,
			ShardCount:      shardCount,
			DiscardTrials:   !rc.verbose,
		}
		if rc.checkpoint != "" {
			cfg.Checkpoint = targets[i] + "." + rc.checkpoint
		}
		if rc.shardOut != "" {
			if shardCount < 2 {
				return fmt.Errorf("-shard-out without -shard i/n")
			}
			cfg.ShardOut = fmt.Sprintf("%s.shard%dof%d.%s", targets[i], shardIdx, shardCount, rc.shardOut)
			shardPaths[i] = cfg.ShardOut
		}
		res, err := swifi.Run(cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	if err := render(results, shape != swifi.ShapeLegacy, rc.trace, rc.traceOut); err != nil {
		return err
	}
	for _, path := range shardPaths {
		if path != "" {
			fmt.Println("wrote", path)
		}
	}
	if rc.verbose {
		for _, res := range results {
			for i, tr := range res.Trials {
				if tr.Outcome == swifi.OutcomeRecovered || tr.Outcome == swifi.OutcomeUndetected {
					continue
				}
				fmt.Printf("%s trial %d: %s reg=%v bit=%d fn=%s: %s\n",
					res.Service, i, tr.Outcome, tr.Injection.Reg, tr.Injection.Bit, tr.Injection.Fn, tr.Detail)
			}
		}
	}
	return nil
}

// render writes the standard campaign output — the Table II rows, the
// per-kind columns for shaped campaigns, and the per-mechanism recovery
// breakdowns with optional snapshot files for traced ones. Single-
// process runs and -merge go through this one function, which is what
// makes their stdout byte-comparable.
func render(results []*swifi.Result, shaped, trace bool, traceOut string) error {
	experiments.RenderTable2(os.Stdout, results)
	if shaped {
		experiments.RenderTable2Kinds(os.Stdout, results)
	}
	if trace {
		for _, res := range results {
			experiments.RenderRecoveryBreakdown(os.Stdout, res)
			if traceOut != "" {
				path := res.Service + "." + traceOut
				if err := writeSnapshot(path, res); err != nil {
					return err
				}
				fmt.Println("wrote", path)
			}
		}
	}
	return nil
}

// runMerge folds shard files back into canonical campaigns: the files
// are loaded and grouped by service, each group is validated and merged
// (swifi.MergeStates), and the merged campaigns are rendered through
// the exact code path a single-process run uses — so the output is
// byte-identical to running unsharded.
func runMerge(files []string, traceOut string) error {
	if len(files) == 0 {
		return fmt.Errorf("-merge needs shard files as arguments")
	}
	byService := make(map[string][]*swifi.CampaignState)
	for _, path := range files {
		st, err := swifi.LoadCampaignState(path)
		if err != nil {
			return err
		}
		byService[st.Service] = append(byService[st.Service], st)
	}
	// Render in Table II order (the order a single-process all-services
	// run would use), then any unknown services by name.
	var services []string
	for _, svc := range swifi.Targets() {
		if _, ok := byService[svc]; ok {
			services = append(services, svc)
		}
	}
	var extra []string
	for svc := range byService {
		if _, ok := swifi.Workloads()[svc]; !ok {
			extra = append(extra, svc)
		}
	}
	sort.Strings(extra)
	services = append(services, extra...)

	results := make([]*swifi.Result, 0, len(services))
	shaped, traced := false, false
	for _, svc := range services {
		merged, err := swifi.MergeStates(byService[svc])
		if err != nil {
			return err
		}
		if merged.Shape != swifi.ShapeLegacy.String() {
			shaped = true
		}
		if merged.Traced {
			traced = true
		}
		results = append(results, merged.Result())
	}
	return render(results, shaped, traced, traceOut)
}

// writeSnapshot serializes one campaign's trace snapshot to path.
func writeSnapshot(path string, res *swifi.Result) error {
	data, err := json.MarshalIndent(res.Recovery, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runPrime(trials int, seed int64, workers int, service string) error {
	var services []string
	if service != "" {
		services = append(services, service)
	}
	rows, err := experiments.Table2Prime(trials, seed, workers, services...)
	if err != nil {
		return err
	}
	experiments.RenderTable2Prime(os.Stdout, rows)
	return nil
}
