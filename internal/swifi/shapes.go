package swifi

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/kernel"
)

// Shape selects a campaign's injection pattern. The zero value is the
// paper's original single-bit-flip campaign: a one-entry plan of the
// same engine that runs every shape, drawn in the paper campaign's RNG
// order and booked by its per-flip classifier.
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

// PlannedFault is one entry of a trial's injection plan: fire a fault of
// Kind at the Moment-th invocation entry into the campaign target (or
// exit, with Exit), against its victim (the target, or the storage
// component when Storage is set).
type PlannedFault struct {
	Kind fault.Kind
	// Moment is 1-based: fire at the Nth entry into the campaign target.
	Moment uint64
	// Exit moves the moment into the return window: Moment counts exits
	// from the target instead of entries. Only ShapeLegacy plans it.
	Exit bool `json:",omitempty"`
	// Storage marks the storage component (not the target) as the victim.
	Storage bool `json:",omitempty"`
	// Deferred marks a during-recovery secondary: Moment is ignored and
	// the fault fires at the first target entry in a later epoch.
	Deferred bool `json:",omitempty"`
	// Fired reports whether the plan entry actually fired before the
	// workload completed (or the machine died).
	Fired bool
}

// planShaped draws a trial's injection plan from the trial RNG. All
// planning randomness is consumed here, in a fixed order, and the firings
// draw the rest in plan order, so the plan — and with it the whole trial
// — is a pure function of the trial seed.
func planShaped(cfg Config, opportunities uint64, rng *rand.Rand) []PlannedFault {
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = DefaultKinds()
	}
	moment := func() uint64 { return uint64(rng.Int63n(int64(opportunities))) + 1 }
	kind := func() fault.Kind { return kinds[rng.Intn(len(kinds))] }

	var plan []PlannedFault
	switch cfg.Shape {
	case ShapeLegacy:
		// The paper's campaign: one register flip, in the return window
		// with probability exitPhaseFrac. The window is drawn first.
		exit := rng.Float64() < exitPhaseFrac
		plan = []PlannedFault{{Kind: fault.KindRegisterFlip, Moment: moment(), Exit: exit}}
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

// classifyShaped maps a shaped trial's end state to a Table II outcome.
// The per-flip mechanistic subtleties of the legacy classifier do not
// apply: a shaped trial is "recovered" when every fired fault was
// absorbed and the workload still met its specification, and
// "undetected" when nothing fired or nothing that fired was observed.
func classifyShaped(inj *injector, runErr, checkErr error) TrialResult {
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
	case inj.inert():
		// Nothing was activated, so nothing was recovered: the legacy
		// classifier books the same flip undetected too.
		tr.Outcome = OutcomeUndetected
		tr.Detail = "inert register flip (never observed)"
	default:
		tr.Outcome = OutcomeRecovered
	}
	return tr
}

// inert reports whether every fault that fired was a register flip whose
// corruption was never observed: a dead value, or a return value benign
// enough to pass.
func (inj *injector) inert() bool {
	fired := 0
	for _, p := range inj.plan {
		if p.Fired {
			fired++
		}
	}
	if fired != len(inj.flips) {
		return false
	}
	for _, f := range inj.flips {
		if f.Effect != EffectNone && f.Effect != EffectRetvalSilent {
			return false
		}
	}
	return true
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
