package swifi

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"

	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/pool"
	"superglue/internal/workload"
)

// ErrNoOpportunities reports that the fault-free dry run never entered
// the target component: there is no execution moment to inject into, so
// running trials would only accumulate meaningless "undetected" rows.
// It is a configuration error (wrong target, empty workload), surfaced
// as a typed error instead of the silent one-opportunity clamp the
// injector used to apply.
var ErrNoOpportunities = errors.New("swifi: workload never invokes the target (no injection opportunities)")

// Outcome classifies one campaign trial, matching Table II's columns.
type Outcome int

// Outcomes.
const (
	// OutcomeUndetected: the injected flip was never observed.
	OutcomeUndetected Outcome = iota + 1
	// OutcomeRecovered: the fault was detected and SuperGlue recovered it;
	// the workload ran to completion abiding by its specification.
	OutcomeRecovered
	// OutcomeSegfault: the system exited with the machine-level crash.
	OutcomeSegfault
	// OutcomePropagated: the fault escaped into a client component and the
	// run could not be recovered.
	OutcomePropagated
	// OutcomeOther: the system hung (latent fault) or failed in a way the
	// recovery machinery does not cover.
	OutcomeOther
	// OutcomeDegraded: recovery exhausted its escalation budget and the
	// stub returned the typed degradation error; the machine kept running
	// but the workload lost its service (Table II′, watchdog campaigns).
	OutcomeDegraded
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeUndetected:
		return "undetected"
	case OutcomeRecovered:
		return "recovered"
	case OutcomeSegfault:
		return "not recovered (segfault)"
	case OutcomePropagated:
		return "not recovered (propagated)"
	case OutcomeOther:
		return "not recovered (other)"
	case OutcomeDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config parameterizes one fault-injection campaign against one service.
type Config struct {
	// Service is the target's name (reporting).
	Service string
	// Workload builds one trial's system and threads.
	Workload workload.Factory
	// Iters is the per-trial workload iteration count.
	Iters int
	// Trials is the number of injections (the paper uses 500).
	Trials int
	// Seed makes the campaign reproducible.
	Seed int64
	// Profile is the target component's register-usage profile.
	Profile kernel.RegProfile
	// Mode selects the recovery timing.
	Mode core.RecoveryMode
	// Watchdog enables the kernel watchdog for each ShapeLegacy trial (the
	// Table II′ campaigns): component-attributable hangs become
	// recoverable component faults instead of machine-killing latent
	// faults. The other shapes always run with it on.
	Watchdog bool
	// WatchdogBudget overrides the per-invocation virtual-time budget
	// (zero takes the kernel default).
	WatchdogBudget kernel.Time
	// Trace installs a structured trace recorder (internal/obs) into every
	// trial's kernel and aggregates per-mechanism recovery statistics across
	// the campaign into Result.Recovery. Tracing adds no virtual-time
	// charges, so traced campaigns classify identically to untraced ones.
	Trace bool
	// TraceCapacity bounds each trial's private event ring and the merged
	// campaign event stream (0 takes the obs default).
	TraceCapacity int
	// Workers bounds the number of trials executed concurrently. Each
	// trial runs on a fresh system with a private trace recorder and its
	// results are committed in trial-index order, so for a fixed Seed the
	// campaign output is byte-identical for any worker count. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
	// Shape selects the campaign's injection pattern; every shape is
	// planned and fired by the same engine. The zero value (ShapeLegacy)
	// is the paper's single-bit-flip campaign, a one-entry plan; the other
	// shapes plan typed multi-fault trials and always run with the
	// watchdog enabled.
	Shape Shape
	// Kinds is the fault-kind pool shaped trials draw from; empty takes
	// DefaultKinds(). Ignored by ShapeLegacy.
	Kinds []fault.Kind
	// StormFaults is the per-trial burst size for ShapeStorm (zero takes
	// DefaultStormFaults).
	StormFaults int
	// Policy names the supervision policy installed into every trial's
	// system: "" or "legacy" keeps the flat escalation ladder;
	// "one-for-one", "rest-for-one", and "all-for-one" build a root
	// supervisor of that strategy over all registered servers.
	Policy string
	// FaultActions installs runtime per-kind recovery-action overrides
	// (kind name → reboot|retry|degrade) into every trial's system
	// through core.System.HandleFault — the handler layer that precedes
	// sm_fault declarations. Model-checker repro plans use it to replay
	// a fixture spec's routing on the builtin workload.
	FaultActions map[string]string
	// Recovery, when non-nil, overrides every trial system's recovery
	// policy (escalation-ladder rungs, walk-retry bound, and the
	// degrade/fail-hard terminal).
	Recovery *core.RecoveryPolicy
	// Cores is the number of simulated cores per trial machine (0 and 1
	// are the legacy single-core machine). With more than one core the
	// campaign places the target service on core 1 — every workload
	// thread lives on core 0, so each invocation of the target becomes a
	// cross-core synchronous invocation — and the deterministic virtual-
	// time merge keeps the campaign reproducible for any worker count.
	Cores int
	// Replicas is the storage replication factor per trial machine (0 and
	// 1 are the legacy single-copy store, byte-identical to the
	// pre-replication behavior). With more than one replica the storage
	// fault kinds land inside the store — a fail-stop of one replica or a
	// bit flip in one replica's log/checkpoint/slice state — and recovery
	// proceeds under quorum (see docs/STORAGE.md).
	Replicas int

	// Checkpoint, when non-empty, is the path the campaign persists its
	// rolling state to every CheckpointEvery committed trials (and at
	// completion): the durable unit of fleet-scale campaigns. None of the
	// fields below this line affects campaign output — an interrupted-
	// then-resumed or sharded-then-merged campaign is byte-identical to
	// an uninterrupted single-process one (see Config.Hash).
	Checkpoint string
	// CheckpointEvery is the number of committed trials between
	// checkpoint writes (zero takes DefaultCheckpointEvery).
	CheckpointEvery int
	// Resume continues a campaign from Checkpoint's committed cursor
	// instead of trial zero. A missing checkpoint file starts fresh; an
	// existing one must match this Config (hash, trial range, capacity)
	// or Run refuses it.
	Resume bool
	// HaltAfter, when positive, deliberately stops the campaign after
	// that many newly committed trials: the checkpoint is persisted and
	// Run returns ErrHalted. It exists to make "kill the campaign midway
	// and resume it" a deterministic, scriptable event (fleet-smoke CI).
	HaltAfter int
	// Shard and ShardCount select a contiguous slice of the trial space:
	// shard i of n runs only the trials shardRange assigns it. ShardCount
	// of zero or one is the whole campaign. Per-trial seeds depend only
	// on (Seed, trial index), so shards are independent processes whose
	// persisted states MergeStates folds back into the canonical result.
	Shard      int
	ShardCount int
	// ShardOut, when non-empty, is the path the shard's final state is
	// persisted to (checksummed, mergeable with MergeStates).
	ShardOut string
	// DiscardTrials drops per-trial records instead of accumulating
	// Result.Trials, making campaign memory independent of trial count
	// (the fleet-scale default; rendering Table II needs only counters).
	DiscardTrials bool
}

// Result aggregates one campaign, mirroring one row of Table II.
type Result struct {
	Service string
	// Cores is the simulated core count the campaign ran with (0/1 =
	// single core; multi-core rows are annotated in the rendered table).
	Cores      int `json:",omitempty"`
	Injected   int
	Recovered  int
	Segfault   int
	Propagated int
	Other      int
	Degraded   int
	Undetected int
	// Trials holds each trial's record for deeper analysis.
	Trials []TrialResult
	// Recovery is the campaign-wide trace snapshot (counters, per-mechanism
	// recovery-latency histograms, most recent events). Nil unless the
	// campaign ran with Config.Trace.
	Recovery *obs.Snapshot
	// Kinds breaks the outcomes down by injected fault kind — the Table
	// II fault-kind columns. Nil for legacy campaigns (whose single
	// injected class is the register flip), populated for shaped ones; a
	// trial with several fired kinds counts once under each.
	Kinds map[string]*KindStats `json:",omitempty"`
}

// KindStats aggregates the outcomes of trials in which at least one
// fault of the kind fired.
type KindStats struct {
	Injected     int
	Recovered    int
	Degraded     int
	NotRecovered int
	Undetected   int
}

// TrialResult records one injection and its classified outcome.
type TrialResult struct {
	Injection Injection
	Outcome   Outcome
	Detail    string
	// Planned is the trial's full injection plan with per-entry fired
	// markers: one register flip for ShapeLegacy trials.
	Planned []PlannedFault `json:",omitempty"`
}

// ActivationRatio is |F_a| / |F_a ∪ F_u|: the fraction of injected faults
// that were activated (observed at all).
func (r *Result) ActivationRatio() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Injected-r.Undetected) / float64(r.Injected)
}

// SuccessRate is |F_r| / |F_a|: the fraction of activated faults that were
// recovered.
func (r *Result) SuccessRate() float64 {
	activated := r.Injected - r.Undetected
	if activated == 0 {
		return 0
	}
	return float64(r.Recovered) / float64(activated)
}

// TrialSeed derives the per-trial RNG seed from the campaign seed and
// the trial index with a SplitMix64-style finalizer. The previous
// linear derivation (Seed + trial*7919) made campaigns whose seeds
// differ by a multiple of 7919 share identical trial RNG streams at a
// trial-index offset; mixing both inputs through the avalanche function
// makes every (Seed, trial) pair an independent stream.
func TrialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + (uint64(trial)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Opportunities runs the campaign's workload fault-free and returns the
// number of injection opportunities: invocation entries into the target.
// This is the same dry run Run performs before its first trial, exported
// so callers can reproduce a trial's injection plan without running it.
func Opportunities(cfg Config) (uint64, error) {
	return dryRun(cfg.withDefaults())
}

// withDefaults fills the workload knobs Run and Opportunities share: five
// iterations per trial and on-demand recovery.
func (cfg Config) withDefaults() Config {
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.OnDemand
	}
	return cfg
}

// PlanAt returns the injection plan the given trial would draw — a pure
// function of (cfg, opportunities, trial), consuming the same RNG stream
// the live trial consumes. Every shape has one; a ShapeLegacy plan is a
// single register flip.
func PlanAt(cfg Config, opportunities uint64, trial int) []PlannedFault {
	return planShaped(cfg, opportunities, seedTrial(newTrialRand(), cfg, trial))
}

// seedTrial positions rng at the start of trial's stream. PlanAt and the
// live trial both draw through it, so the plan PlanAt reports is the
// plan the trial runs.
func seedTrial(rng *rand.Rand, cfg Config, trial int) *rand.Rand {
	rng.Seed(TrialSeed(cfg.Seed, trial))
	return rng
}

// errDrain is the sentinel a worker returns when the stream gate was
// stopped under it (halt, or a merger-side persistence error): the pool
// uses it to stop handing out trials, and Run never surfaces it as the
// campaign error — the smallest-index failure is always the real one,
// because a worker that reached the gate-blocked region has a strictly
// larger trial index than every worker that entered and could fail.
var errDrain = errors.New("swifi: campaign stream drained")

// streamGate bounds how far ahead of the commit cursor workers may run.
// Workers enter with their trial index and block while it is at least
// window trials beyond the lowest uncommitted trial; the merger advances
// the cursor as it commits, waking them. Bounding the lead bounds the
// number of uncommitted snapshots alive at once, which is what makes
// campaign memory independent of trial count. Deadlock-free: a blocked
// trial's index strictly exceeds every entered trial's index (the pool
// hands indices out in order), so the trial the merger is waiting on is
// never the one blocked at the gate.
type streamGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int // lowest uncommitted trial index
	window  int
	stopped bool
}

func newStreamGate(next, window int) *streamGate {
	g := &streamGate{next: next, window: window}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter blocks until trial is within the commit window; it reports false
// if the gate was stopped (the worker should abandon the trial).
func (g *streamGate) enter(trial int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.stopped && trial >= g.next+g.window {
		g.cond.Wait()
	}
	return !g.stopped
}

// advance moves the commit cursor one trial forward and wakes waiters.
func (g *streamGate) advance() {
	g.mu.Lock()
	g.next++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// stop releases every waiter with a false verdict.
func (g *streamGate) stop() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Run executes the campaign: for each trial it builds a fresh system, draws
// the trial's injection plan (for ShapeLegacy, one bit flip at a uniformly
// random execution moment inside the target), runs the workload to
// completion (or to the machine's death), and classifies the outcome.
// Trials are independent and reproducible from the seed.
//
// The engine is a streaming rolling merge. Workers (Config.Workers
// goroutines) each run one trial at a time on a private system with a
// private RNG and — when tracing — a private obs.Recorder, and publish
// the trial's result and recorder into a bounded channel. A single
// merger folds them into the rolling CampaignState in strict trial-index
// order, holding out-of-order arrivals in a small pending set, and hands
// each committed recorder back to the workers for reuse; a stream gate
// keeps workers within a bounded window of the commit cursor. The
// consequences:
//
//   - The Result, the merged trace snapshot, and any JSON derived from
//     them are byte-identical across worker counts for a fixed seed.
//   - Memory is O(workers), not O(trials): at most a window of
//     uncommitted recorders exists at once, and the rolling event stream
//     is a ring of the trace capacity (obs.Stream), which becomes the
//     snapshot's events wherever the state is observed (Result,
//     Persist) — provably equal to the batch merge with one final trim
//     (see obs.Merge).
//   - The rolling state is durable: with Config.Checkpoint set it is
//     persisted every CheckpointEvery commits, Resume continues from the
//     cursor, HaltAfter stops deterministically with ErrHalted, and
//     Shard/ShardCount split the trial space across processes whose
//     persisted states MergeStates folds back together.
func Run(cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("swifi: non-positive trial count %d", cfg.Trials)
	}
	cfg = cfg.withDefaults()
	capacity := cfg.TraceCapacity
	if capacity <= 0 {
		capacity = obs.DefaultCapacity
	}
	start, end := 0, cfg.Trials
	if cfg.ShardCount > 1 {
		if cfg.Shard < 0 || cfg.Shard >= cfg.ShardCount {
			return nil, fmt.Errorf("swifi: shard index %d outside [0,%d)", cfg.Shard, cfg.ShardCount)
		}
		start, end = shardRange(cfg.Trials, cfg.Shard, cfg.ShardCount)
	} else if cfg.Shard != 0 {
		return nil, fmt.Errorf("swifi: shard index %d without a shard count", cfg.Shard)
	}
	if cfg.HaltAfter > 0 && cfg.Checkpoint == "" {
		return nil, fmt.Errorf("swifi: HaltAfter without a Checkpoint path would lose the committed trials")
	}
	if cfg.Resume && cfg.Checkpoint == "" {
		return nil, fmt.Errorf("swifi: Resume without a Checkpoint path")
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}

	// Dry run: count injection opportunities (invocation entries into the
	// target) for the uniform draw of the injection moment.
	opportunities, err := dryRun(cfg)
	if err != nil {
		return nil, fmt.Errorf("swifi: dry run: %w", err)
	}

	// The rolling state: fresh, or the persisted cursor of an earlier run.
	st := newCampaignState(cfg, capacity, start, end)
	if cfg.Resume {
		loaded, err := LoadCampaignState(cfg.Checkpoint)
		switch {
		case err == nil:
			if merr := loaded.matches(cfg, capacity, start, end); merr != nil {
				return nil, merr
			}
			st = loaded
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume: a fresh campaign.
		default:
			return nil, err
		}
	}

	var trials []TrialResult
	if n := end - st.Next; n > 0 {
		base := st.Next
		workers := pool.Clamp(cfg.Workers, n)
		// The run-ahead bound: a worker may start a trial only while it is
		// fewer than window trials past the commit cursor, so at most
		// window trials (and their recorders) are in flight, whatever the
		// Go scheduler does (see runAhead).
		window := runAhead
		if workers > 1 {
			window = max(4*workers, 16)
		}
		type trialOut struct {
			trial int
			tr    TrialResult
			rec   *obs.Recorder
		}
		gate := newStreamGate(base, window)
		outs := make(chan trialOut, window)
		done := make(chan error, 1)
		// Free lists: a worker reseeds an idle RNG and resets an idle
		// recorder instead of building new ones, so an RNG's register and
		// a recorder's ring and component table are allocated once, not
		// once per trial. The merger hands a recorder back once its trial
		// is committed. Each list has room for every item that can exist
		// at once, so release never drops one: an RNG per worker, and a
		// recorder per trial inside the gate's window (a worker takes one
		// only after entering the gate, and the merger releases it before
		// advancing the gate).
		rngs := make(chan *rand.Rand, workers)
		recs := make(chan *obs.Recorder, window)
		go func() {
			done <- pool.Run(n, cfg.Workers, func(i int) error {
				trial := base + i
				if !gate.enter(trial) {
					return errDrain
				}
				var rng *rand.Rand
				select {
				case rng = <-rngs:
				default:
					rng = newTrialRand()
				}
				defer release(rngs, rng)
				var rec *obs.Recorder
				if cfg.Trace {
					select {
					case rec = <-recs:
						rec.Reset()
					default:
						rec = obs.NewRecorder(capacity)
					}
				}
				tr, err := runTrial(cfg, opportunities, seedTrial(rng, cfg, trial), rec)
				if err != nil {
					gate.stop()
					return fmt.Errorf("swifi: trial %d: %w", trial, err)
				}
				outs <- trialOut{trial: trial, tr: tr, rec: rec}
				return nil
			})
			close(outs)
		}()

		// The merger: fold publications into the rolling state in strict
		// trial-index order, persisting every `every` commits. On halt or
		// a persistence error it stops the gate and keeps draining the
		// channel so no worker blocks on send.
		pending := make(map[int]trialOut, window)
		committed := 0
		halted := false
		var mergeErr error
		for out := range outs {
			if halted || mergeErr != nil {
				continue
			}
			pending[out.trial] = out
			for {
				nxt, ok := pending[st.Next]
				if !ok {
					break
				}
				delete(pending, st.Next)
				st.commit(nxt.tr, nxt.rec)
				if nxt.rec != nil {
					release(recs, nxt.rec)
				}
				if !cfg.DiscardTrials {
					trials = append(trials, nxt.tr)
				}
				committed++
				gate.advance()
				if cfg.Checkpoint != "" && committed%every == 0 {
					if err := st.Persist(cfg.Checkpoint); err != nil {
						mergeErr = err
						gate.stop()
						break
					}
				}
				if cfg.HaltAfter > 0 && committed >= cfg.HaltAfter && st.Next < end {
					if err := st.Persist(cfg.Checkpoint); err != nil {
						mergeErr = err
					} else {
						halted = true
					}
					gate.stop()
					break
				}
			}
		}
		perr := <-done
		if mergeErr != nil {
			return nil, mergeErr
		}
		if halted {
			return nil, ErrHalted
		}
		if perr != nil {
			return nil, perr
		}
	}

	// Completion: persist the final state so a later -resume is a no-op
	// and a shard file exists for MergeStates.
	if cfg.Checkpoint != "" {
		if err := st.Persist(cfg.Checkpoint); err != nil {
			return nil, err
		}
	}
	if cfg.ShardOut != "" {
		if err := st.Persist(cfg.ShardOut); err != nil {
			return nil, err
		}
	}
	res := st.Result()
	res.Trials = trials
	return res, nil
}

// runAhead is the run-ahead bound of a one-worker campaign: the worker
// runs one trial while the merger commits its last, and a longer lead
// only keeps more recorders' rings out of cache. Several workers get
// max(4*workers, 16): there a worker must be able to run past a peer's
// long trial, which holds the commit cursor (two per worker measured
// 8% slower than this on two workers at GOMAXPROCS 2).
const runAhead = 2

// release returns v to a free list, dropping it if the list is full.
func release[T any](free chan T, v T) {
	select {
	case free <- v:
	default:
	}
}

// foldKinds folds one shaped trial into the per-kind outcome columns:
// each kind that fired at least once in the trial takes one count. A nil
// map (legacy campaigns) folds nothing.
func foldKinds(kinds map[string]*KindStats, tr TrialResult) {
	if kinds == nil || len(tr.Planned) == 0 {
		return
	}
	counted := make([]fault.Kind, 0, fault.NumKinds)
	for _, p := range tr.Planned {
		if !p.Fired || slices.Contains(counted, p.Kind) {
			continue
		}
		counted = append(counted, p.Kind)
		name := p.Kind.String()
		ks := kinds[name]
		if ks == nil {
			ks = &KindStats{}
			kinds[name] = ks
		}
		ks.Injected++
		switch tr.Outcome {
		case OutcomeRecovered:
			ks.Recovered++
		case OutcomeDegraded:
			ks.Degraded++
		case OutcomeUndetected:
			ks.Undetected++
		default:
			ks.NotRecovered++
		}
	}
}

// buildTrialSystem boots one trial's machine (dry run included): a fresh
// system with cfg.Cores simulated cores, the workload built on it, and —
// on multi-core machines — the target service placed on core 1. Workload
// threads are created on core 0, so placement turns every target
// invocation into a cross-core synchronous invocation; the storage
// component keeps its default execute-on-caller placement.
func buildTrialSystem(cfg Config) (*core.System, workload.Workload, kernel.ComponentID, error) {
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	sys, err := core.NewSystemWithStorage(cfg.Mode, cores, cfg.Replicas)
	if err != nil {
		return nil, nil, 0, err
	}
	w := cfg.Workload(cfg.Iters)
	target, err := w.Build(sys)
	if err != nil {
		return nil, nil, 0, err
	}
	if cores > 1 {
		if err := sys.PlaceServer(target, 1); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := applyOverrides(sys, cfg); err != nil {
		return nil, nil, 0, err
	}
	return sys, w, target, nil
}

// applyOverrides installs the campaign's runtime routing and policy
// overrides into one trial's system. The fault-free dry run gets them
// too: the overrides must not change fault-free behavior, and applying
// them uniformly keeps every trial system identically configured.
func applyOverrides(sys *core.System, cfg Config) error {
	names := make([]string, 0, len(cfg.FaultActions))
	for name := range cfg.FaultActions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k, ok := fault.ParseKind(name)
		if !ok {
			return fmt.Errorf("swifi: unknown fault kind %q in FaultActions", name)
		}
		act, ok := core.ParseFaultAction(cfg.FaultActions[name])
		if !ok {
			return fmt.Errorf("swifi: unknown fault action %q for kind %s", cfg.FaultActions[name], name)
		}
		sys.HandleFault(k, func(fault.Event) core.FaultAction { return act })
	}
	if cfg.Recovery != nil {
		sys.SetRecoveryPolicy(*cfg.Recovery)
	}
	return nil
}

// dryRun executes the workload fault-free and counts invocation entries
// into the target component: the trial injector with an empty plan.
func dryRun(cfg Config) (uint64, error) {
	sys, w, target, err := buildTrialSystem(cfg)
	if err != nil {
		return 0, err
	}
	inj := newInjector(sys, target, nil, nil)
	sys.Kernel().SetInvokeHook(inj.Hook)
	if err := sys.Kernel().Run(); err != nil {
		return 0, fmt.Errorf("fault-free run failed: %w", err)
	}
	if err := w.Check(); err != nil {
		return 0, fmt.Errorf("fault-free run violates workload spec: %w", err)
	}
	if inj.entries == 0 {
		return 0, ErrNoOpportunities
	}
	return inj.entries, nil
}

// runTrial executes one injection trial of any shape. Shaped trials always
// run with the watchdog on: hang and livelock injections are part of
// their kind pool, and without attribution they would kill the machine
// rather than exercise the escalation ladder.
func runTrial(cfg Config, opportunities uint64, rng *rand.Rand, rec *obs.Recorder) (TrialResult, error) {
	sys, w, target, err := buildTrialSystem(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	if rec != nil {
		sys.SetTracer(rec)
	}
	if err := sys.Kernel().SetRegProfile(target, cfg.Profile); err != nil {
		return TrialResult{}, err
	}
	if cfg.Watchdog || cfg.Shape != ShapeLegacy {
		sys.Kernel().EnableWatchdog(kernel.WatchdogConfig{Budget: cfg.WatchdogBudget})
	}
	if err := ApplyPolicy(sys, cfg.Policy); err != nil {
		return TrialResult{}, err
	}
	inj := newInjector(sys, target, planShaped(cfg, opportunities, rng), rng)
	sys.Kernel().SetInvokeHook(inj.Hook)

	runErr := sys.Kernel().Run()
	checkErr := error(nil)
	if runErr == nil {
		checkErr = w.Check()
	}
	if cfg.Shape == ShapeLegacy {
		return classify(inj, runErr, checkErr, sys.Kernel().WatchdogStats()), nil
	}
	return classifyShaped(inj, runErr, checkErr), nil
}

// classify maps a ShapeLegacy trial's (injection effect, run error,
// workload check, watchdog stats) to a Table II outcome. Its rules are per
// flip; classifyShaped books the other shapes per plan.
func classify(inj *injector, runErr, checkErr error, wd kernel.WatchdogStats) TrialResult {
	tr := TrialResult{Planned: inj.plan}
	if !inj.anyFired() {
		// The injection moment was never reached (the workload finished
		// first); the flip never happened, so nothing was observed.
		tr.Outcome = OutcomeUndetected
		tr.Detail = "injection point not reached"
		return tr
	}
	tr.Injection = inj.flips[0]
	var crash *kernel.SystemCrash
	switch {
	case errors.As(runErr, &crash):
		tr.Outcome = OutcomeSegfault
		tr.Detail = crash.Reason
	case errors.Is(runErr, kernel.ErrHang):
		tr.Outcome = OutcomeOther
		tr.Detail = "system hang (latent fault)"
		if wd.Unattributable > 0 {
			tr.Detail = "system hang (watchdog: unattributable)"
		}
	case errors.Is(runErr, core.ErrDegraded) || errors.Is(checkErr, core.ErrDegraded):
		// The watchdog (or fail-stop detection) kept the machine alive,
		// but the escalation ladder ran out of budget: graceful
		// degradation rather than a lost machine.
		tr.Outcome = OutcomeDegraded
		tr.Detail = firstErr(runErr, checkErr).Error()
	case runErr != nil:
		// The machine died in an unforeseen way (e.g., a propagated value
		// made a client panic).
		if tr.Injection.Effect == EffectRetvalSilent {
			tr.Outcome = OutcomePropagated
		} else {
			tr.Outcome = OutcomeOther
		}
		tr.Detail = runErr.Error()
	case checkErr != nil:
		// Every non-propagation deviation — including an EffectNone flip
		// breaking the workload, which would be a harness bug — lands in
		// "other".
		if tr.Injection.Effect == EffectRetvalSilent {
			tr.Outcome = OutcomePropagated
		} else {
			tr.Outcome = OutcomeOther
		}
		tr.Detail = checkErr.Error()
	default:
		switch tr.Injection.Effect {
		case EffectNone:
			tr.Outcome = OutcomeUndetected
		case EffectRetvalSilent:
			// The corrupted value flowed into the client but nothing
			// deviated from the workload specification: not activated.
			tr.Outcome = OutcomeUndetected
			tr.Detail = "propagated value was benign"
		default:
			tr.Outcome = OutcomeRecovered
			if tr.Injection.Effect == EffectHang && wd.HangsCaught > 0 {
				// The watchdog verdict: what was a latent machine-killer
				// was attributed, failed, and recovered as a component
				// fault.
				tr.Detail = "hang caught by watchdog"
			}
		}
	}
	return tr
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
