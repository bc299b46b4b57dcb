package swifi

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/kernel"
	"superglue/internal/obs"
)

// Shape selects a campaign's injection pattern. The zero value is the
// paper's original single-bit-flip campaign, whose planning, RNG draw
// order, and classification are untouched by the shaped engine: legacy
// campaigns stay byte-identical for a fixed seed.
type Shape int

// Campaign shapes.
const (
	// ShapeLegacy is the paper's §V-A campaign: one register bit flip per
	// trial, mechanistically classified.
	ShapeLegacy Shape = iota
	// ShapeCorrelated injects two correlated faults per trial: a typed
	// fault in the target service and, a few invocations later, a crash
	// of the storage component it (and recovery) depends on. This models
	// a common-cause burst hitting two components at once.
	ShapeCorrelated
	// ShapeStorm injects a burst of typed faults (Config.StormFaults, by
	// default six) at random moments of the loaded workload — the
	// restart-intensity stress case supervision budgets exist for.
	ShapeStorm
	// ShapeDuringRecovery injects one primary typed fault, then arms a
	// second fault to fire at the first invocation of the target *after*
	// its µ-reboot — i.e., while the recovery walk is replaying — probing
	// the escalation ladder's reentrancy.
	ShapeDuringRecovery
)

// String returns the canonical shape name.
func (s Shape) String() string {
	switch s {
	case ShapeLegacy:
		return "legacy"
	case ShapeCorrelated:
		return "correlated"
	case ShapeStorm:
		return "storm"
	case ShapeDuringRecovery:
		return "during-recovery"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ParseShape resolves a shape from its name (underscores accepted).
func ParseShape(s string) (Shape, bool) {
	for sh := ShapeLegacy; sh <= ShapeDuringRecovery; sh++ {
		if name := sh.String(); s == name || s == underscored(name) {
			return sh, true
		}
	}
	return ShapeLegacy, false
}

func underscored(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '-' {
			b[i] = '_'
		}
	}
	return string(b)
}

// DefaultKinds is the kind pool shaped campaigns draw from when
// Config.Kinds is empty: every kind of the taxonomy that the injector
// can synthesize against an arbitrary target. The multi-core kinds are
// deliberately excluded so that existing shaped campaigns stay
// byte-identical for a fixed seed; opt in with MulticoreKinds (or an
// explicit Config.Kinds pool).
func DefaultKinds() []fault.Kind {
	return []fault.Kind{
		fault.KindRegisterFlip, fault.KindHang, fault.KindLivelock,
		fault.KindDescCorruption, fault.KindStorageCrash,
		fault.KindStorageCorruption, fault.KindMessageLoss, fault.KindMessageDup,
	}
}

// MulticoreKinds is DefaultKinds plus the multi-core fault kinds: failed
// thread migrations (transient, redo-recovered) and corruption detected
// during cross-core synchronous invocations (fail-stop). Meaningful on
// machines built with Config.Cores > 1, where target invocations really
// do migrate; on a single core the kinds degrade to their message-loss /
// fail-stop analogues.
func MulticoreKinds() []fault.Kind {
	return append(DefaultKinds(), fault.KindMigration, fault.KindCrossCoreInv)
}

// PlannedFault is one entry of a shaped trial's injection plan: fire a
// fault of Kind at the Moment-th invocation entry into its victim (the
// campaign target, or the storage component when Storage is set).
type PlannedFault struct {
	Kind fault.Kind
	// Moment is 1-based: fire at the Nth entry into the campaign target.
	Moment uint64
	// Storage marks the storage component (not the target) as the victim.
	Storage bool `json:",omitempty"`
	// Deferred marks a during-recovery secondary: Moment is ignored and
	// the fault fires at the first target entry in a later epoch.
	Deferred bool `json:",omitempty"`
	// Fired reports whether the plan entry actually fired before the
	// workload completed (or the machine died).
	Fired bool
}

// planShaped draws a shaped trial's injection plan from the trial RNG.
// All randomness is consumed here, in a fixed order, so the plan — and
// with it the whole trial — is a pure function of the trial seed.
func planShaped(cfg Config, opportunities uint64, rng *rand.Rand) []PlannedFault {
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = DefaultKinds()
	}
	moment := func() uint64 { return uint64(rng.Int63n(int64(opportunities))) + 1 }
	kind := func() fault.Kind { return kinds[rng.Intn(len(kinds))] }

	var plan []PlannedFault
	switch cfg.Shape {
	case ShapeCorrelated:
		primary := PlannedFault{Kind: kind(), Moment: moment()}
		// The correlated storage crash lands 1–3 target invocations after
		// the primary: close enough that the first recovery of either
		// fault runs with the other component also unhealthy.
		lag := uint64(rng.Intn(3)) + 1
		plan = []PlannedFault{
			primary,
			{Kind: fault.KindStorageCrash, Moment: primary.Moment + lag, Storage: true},
		}
	case ShapeStorm:
		n := cfg.StormFaults
		if n <= 0 {
			n = DefaultStormFaults
		}
		for i := 0; i < n; i++ {
			plan = append(plan, PlannedFault{Kind: kind(), Moment: moment()})
		}
	case ShapeDuringRecovery:
		// StormFaults is the deferred-secondary count here (default one,
		// which draws exactly the kinds the single-secondary shape always
		// drew — existing campaigns stay byte-identical). Each secondary
		// fires in its own recovery epoch, probing nested reentrancy of
		// the walk-retry budget.
		n := cfg.StormFaults
		if n <= 0 {
			n = 1
		}
		plan = []PlannedFault{{Kind: kind(), Moment: moment()}}
		for i := 0; i < n; i++ {
			plan = append(plan, PlannedFault{Kind: kind(), Deferred: true})
		}
	}
	// Moment order, deferred entries last: the Hook consumes the plan
	// front-to-back as target invocations accrue.
	sort.SliceStable(plan, func(i, j int) bool {
		if plan[i].Deferred != plan[j].Deferred {
			return !plan[i].Deferred
		}
		return plan[i].Moment < plan[j].Moment
	})
	return plan
}

// DefaultStormFaults is the storm burst size when Config.StormFaults is
// zero.
const DefaultStormFaults = 6

// shapedInjector fires a pre-drawn plan of typed faults against a trial's
// system. Unlike the legacy Injector it may fire several times; moments
// are counted over invocation entries into the campaign target, recovery
// replays included.
type shapedInjector struct {
	k       *kernel.Kernel
	sys     *core.System
	target  kernel.ComponentID
	profile kernel.RegProfile
	rng     *rand.Rand

	plan []PlannedFault
	next int    // next undeferred plan entry
	seen uint64 // target entries observed

	// during-recovery state: the epoch of the target when the primary
	// fired; the deferred secondary fires at the first target entry in a
	// later epoch.
	primaryEpoch uint64
	armed        bool

	flips []Injection // records of register-flip firings
}

func newShapedInjector(sys *core.System, target kernel.ComponentID, profile kernel.RegProfile, plan []PlannedFault, rng *rand.Rand) *shapedInjector {
	return &shapedInjector{
		k:       sys.Kernel(),
		sys:     sys,
		target:  target,
		profile: profile,
		rng:     rng,
		plan:    plan,
	}
}

// anyFired reports whether at least one plan entry fired.
func (inj *shapedInjector) anyFired() bool {
	for _, p := range inj.plan {
		if p.Fired {
			return true
		}
	}
	return false
}

// Hook is the kernel invocation hook for shaped trials.
func (inj *shapedInjector) Hook(t *kernel.Thread, comp kernel.ComponentID, fn string, phase kernel.InvokePhase) {
	if comp != inj.target || phase != kernel.PhaseEntry {
		return
	}
	inj.seen++
	for inj.next < len(inj.plan) {
		p := &inj.plan[inj.next]
		if p.Deferred || p.Moment > inj.seen {
			break
		}
		inj.next++
		inj.fireKind(t, p, fn, phase)
	}
	// A deferred secondary fires at the first target entry whose epoch
	// postdates the primary's: the recovery walk replaying the interface.
	if inj.armed {
		if epoch, err := inj.k.Epoch(inj.target); err == nil && epoch > inj.primaryEpoch {
			inj.armed = false
			for i := range inj.plan {
				if inj.plan[i].Deferred && !inj.plan[i].Fired {
					inj.fireKind(t, &inj.plan[i], fn, phase)
					// Re-arm for the next deferred secondary: it fires
					// at the first target entry of a yet-later epoch.
					inj.primaryEpoch = epoch
					inj.armed = inj.hasUnfiredDeferred()
					break
				}
			}
		}
	}
}

// fireKind synthesizes one typed fault. Faults against the target are
// raised from inside its invocation (the hook runs at PhaseEntry), so
// transient injections arm the in-flight invocation itself.
func (inj *shapedInjector) fireKind(t *kernel.Thread, p *PlannedFault, fn string, phase kernel.InvokePhase) {
	p.Fired = true
	if !p.Deferred && !p.Storage && inj.primaryEpoch == 0 && !inj.armed {
		if epoch, err := inj.k.Epoch(inj.target); err == nil {
			inj.primaryEpoch = epoch
			inj.armed = inj.hasDeferred()
		}
	}
	victim := inj.target
	if p.Storage {
		victim = inj.sys.StorageComp()
	}
	switch p.Kind {
	case fault.KindRegisterFlip:
		rec := flipRegister(t, inj.profile, inj.rng, fn, phase)
		inj.flips = append(inj.flips, rec)
		inj.applyFlip(t, victim, rec)
	case fault.KindHang:
		inj.k.HangCurrentAs(t, fault.KindHang)
	case fault.KindLivelock:
		inj.k.HangCurrentAs(t, fault.KindLivelock)
	case fault.KindDescCorruption:
		_ = inj.k.FailComponentAs(victim, fault.KindDescCorruption, fault.DefaultSeverity(fault.KindDescCorruption))
	case fault.KindStorageCrash:
		if st := inj.sys.Store(); st.Replicas() > 1 {
			// Replicated store: fail-stop one replica (chosen by the trial
			// RNG), then fail the victim service so its recovery runs while
			// the store is a replica down — the store µ-reboots the replica
			// from checkpoint + WAL on its next operation and books the
			// detection as a typed event. The service fault is left
			// unclassified: the quorum absorbs the storage fault, so the
			// service-level sm_fault(storage_crash) policy must not fire.
			st.CrashReplica(inj.rng.Intn(st.Replicas()))
			_ = inj.k.FailComponent(victim)
		} else {
			_ = inj.k.FailComponentAs(inj.sys.StorageComp(), fault.KindStorageCrash, fault.DefaultSeverity(fault.KindStorageCrash))
		}
	case fault.KindStorageCorruption:
		if st := inj.sys.Store(); st.Replicas() > 1 {
			// Replicated store: flip a bit in one replica's log, checkpoint,
			// or slice state, then fail the victim so its G1 restore re-reads
			// storage mid-divergence. A quorum read detects the divergent
			// replica, repairs it by anti-entropy, and still serves correct
			// data, so the service never observes the corruption.
			st.CorruptReplica(inj.rng.Intn(st.Replicas()), inj.rng.Intn(1<<30))
			_ = inj.k.FailComponent(victim)
		} else {
			// Single copy: disagree the redundant copy with its checksum,
			// then fail the victim so the G1 restore path re-reads (and
			// detects) it. When the victim has no saved data the corruption
			// cannot land and the crash alone is the injected fault.
			if class, ok := inj.sys.Class(victim); ok {
				st.CorruptOne(class, inj.rng.Intn(1<<30))
			}
			_ = inj.k.FailComponentAs(victim, fault.KindStorageCorruption, fault.DefaultSeverity(fault.KindStorageCorruption))
		}
	case fault.KindMessageLoss:
		inj.k.InjectTransientFault(t, victim, fault.KindMessageLoss)
	case fault.KindMessageDup:
		inj.k.DuplicateNext(t, victim)
	case fault.KindMigration:
		// A failed migration between cores: the thread arrives but its
		// in-flight execution context is lost, so the invocation unwinds
		// transiently and the stub redoes it (the cross-core analogue of
		// message loss). On a single-core machine, or when the frame did
		// not cross cores, the kind degrades to a plain retransmission.
		inj.k.InjectTransientFault(t, victim, fault.KindMigration)
	case fault.KindCrossCoreInv:
		// Corruption detected while a cross-core invocation executes on
		// the server's home core: fail-stop, µ-reboot on the home core,
		// and the caller's stub replays the (re-migrated) invocation.
		_ = inj.k.FailComponentAs(victim, fault.KindCrossCoreInv, fault.DefaultSeverity(fault.KindCrossCoreInv))
	default:
		_ = inj.k.FailComponentAs(victim, p.Kind, fault.DefaultSeverity(p.Kind))
	}
}

func (inj *shapedInjector) hasDeferred() bool {
	for _, p := range inj.plan {
		if p.Deferred {
			return true
		}
	}
	return false
}

func (inj *shapedInjector) hasUnfiredDeferred() bool {
	for _, p := range inj.plan {
		if p.Deferred && !p.Fired {
			return true
		}
	}
	return false
}

// applyFlip applies a register flip's mechanistic effect to the victim,
// attributing fail-stop detections as typed register-flip faults.
func (inj *shapedInjector) applyFlip(t *kernel.Thread, victim kernel.ComponentID, rec Injection) {
	switch rec.Effect {
	case EffectNone, EffectRetvalSilent:
	case EffectCrash:
		_ = inj.k.FailComponentAs(victim, fault.KindRegisterFlip, fault.SevError)
	case EffectSegfault:
		inj.k.CrashSystem(t, victim,
			fmt.Sprintf("wild %v dereference after bit %d flip", rec.Reg, rec.Bit))
	case EffectHang:
		inj.k.HangCurrentAs(t, fault.KindHang)
	}
}

// runShapedTrial executes one correlated / storm / during-recovery trial.
// The watchdog is always on: hang and livelock injections are part of the
// kind pool, and without attribution they would kill the machine rather
// than exercise the escalation ladder.
func runShapedTrial(cfg Config, opportunities uint64, rng *rand.Rand, rec *obs.Recorder) (TrialResult, error) {
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
	sys.Kernel().EnableWatchdog(kernel.WatchdogConfig{Budget: cfg.WatchdogBudget})
	if err := ApplyPolicy(sys, cfg.Policy); err != nil {
		return TrialResult{}, err
	}
	plan := planShaped(cfg, opportunities, rng)
	inj := newShapedInjector(sys, target, cfg.Profile, plan, rng)
	sys.Kernel().SetInvokeHook(inj.Hook)

	runErr := sys.Kernel().Run()
	checkErr := error(nil)
	if runErr == nil {
		checkErr = w.Check()
	}
	return classifyShaped(inj, runErr, checkErr), nil
}

// classifyShaped maps a shaped trial's end state to a Table II outcome.
// The per-flip mechanistic subtleties of the legacy classifier do not
// apply: a shaped trial is "recovered" when every fired fault was
// absorbed and the workload still met its specification.
func classifyShaped(inj *shapedInjector, runErr, checkErr error) TrialResult {
	tr := TrialResult{Planned: inj.plan}
	if len(inj.flips) > 0 {
		tr.Injection = inj.flips[0]
	}
	if !inj.anyFired() {
		tr.Outcome = OutcomeUndetected
		tr.Detail = "no planned injection point reached"
		return tr
	}
	var crash *kernel.SystemCrash
	switch {
	case errors.As(runErr, &crash):
		tr.Outcome = OutcomeSegfault
		tr.Detail = crash.Reason
	case errors.Is(runErr, kernel.ErrHang):
		tr.Outcome = OutcomeOther
		tr.Detail = "system hang (latent fault)"
	case errors.Is(runErr, core.ErrDegraded) || errors.Is(checkErr, core.ErrDegraded):
		tr.Outcome = OutcomeDegraded
		tr.Detail = firstErr(runErr, checkErr).Error()
	case runErr != nil:
		tr.Outcome = OutcomeOther
		tr.Detail = runErr.Error()
	case checkErr != nil:
		// A shaped fault that silently broke the workload's contract:
		// the duplication/propagation escaped the interface checks.
		tr.Outcome = OutcomePropagated
		tr.Detail = checkErr.Error()
	default:
		tr.Outcome = OutcomeRecovered
	}
	return tr
}

// ApplyPolicy installs a named supervision policy into a system: "" or
// "legacy" leaves the flat escalation ladder, any supervision strategy
// name ("one-for-one", "rest-for-one", "all-for-one") builds a root
// supervisor of that strategy over every registered server with default
// restart-intensity budgets. This is the runtime-adaptive switch behind
// the swifi -policy flag.
func ApplyPolicy(sys *core.System, policy string) error {
	if policy == "" || policy == "legacy" {
		return nil
	}
	strat, ok := core.ParseStrategy(policy)
	if !ok {
		return fmt.Errorf("swifi: unknown policy %q (want legacy, one-for-one, rest-for-one, or all-for-one)", policy)
	}
	var children []core.ChildSpec
	for _, id := range sys.Servers() {
		children = append(children, core.ChildSpec{Component: id})
	}
	if len(children) == 0 {
		return fmt.Errorf("swifi: policy %q needs at least one registered server", policy)
	}
	return sys.SetSupervisor(&core.SupervisorSpec{
		Name:     "root",
		Strategy: strat,
		Children: children,
	})
}
