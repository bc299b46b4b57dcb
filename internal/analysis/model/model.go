// Package model implements a bounded exhaustive model checker over
// compiled SuperGlue interface specifications: the static counterpart of
// the SWIFI campaigns, proving the recovery properties those campaigns
// sample (§V, Table II) for every reachable configuration of a bounded
// system instead of 500 random trials.
//
// The checker compiles a spec's descriptor state machine σ, its
// block/hold/wakeup protocol, its sm_fault policy, and the active
// recovery policy and supervision strategy into a product automaton:
//
//	(descriptor shared states)^k × (thread block/hold status)^m
//	    × fault kind × recovery mechanism phase (R0/T0/T1/D0/D1/G0/G1/U0)
//	    × escalation-ladder attempt counter × restart-intensity budget
//
// Operational moves (creation, pure transitions, block, wakeup, hold,
// release) are explored breadth-first for a bounded k descriptors and m
// threads; in every reachable configuration every fault kind of the pool
// is injected and its recovery episode — which is deterministic, stepping
// core's own escalation ladder and walk-retry bound (RecoveryPolicy.Rung
// and RetryWalk, the decisions the client stub takes) — is simulated step
// by step, including during-recovery secondary faults.
//
// Verified properties and their diagnostic codes:
//
//	SG201 error  recovery-coverage liveness: a fault kind injected in a
//	             reachable configuration ends in neither a Recovered nor a
//	             Degraded terminal (the static analog of Table II)
//	SG202 error  recovery-walk termination: a recovery episode revisits a
//	             configuration — a hold-replay or wakeup-replay cycle
//	             (generalizing the syntactic SG105/SG110 lints to behavior)
//	SG203 error  restart-intensity exhaustion (core.ErrRestartIntensity) is
//	             reachable under the declared supervision tree from a
//	             single fault; as info, the minimal storm burst that
//	             exhausts the budget is reported with a witness
//	SG204 error  a mid-recovery fault (the during-recovery shape) strands a
//	             held descriptor: the episode ends with a tracked hold lost
//
// Every violation carries a full witness trace (the operational path to
// the configuration plus the step-by-step episode) and is lowered to a
// concrete SWIFI injection plan (Repro) that replays the counterexample
// as a deterministic dynamic trial.
package model

import (
	"fmt"
	"time"

	"superglue/internal/analysis/speclint"
	"superglue/internal/core"
	"superglue/internal/fault"
)

// Bounded-exploration caps: the encoded configuration holds at most
// maxK descriptor slots and maxM thread slots.
const (
	maxK = 3
	maxM = 3
)

// Config parameterizes one checking run. The zero value checks with the
// deployment defaults: 2 descriptors, 2 threads, the default recovery
// policy (degrade at exhaustion), no supervision tree, the eight
// single-core fault kinds, and up to 2 during-recovery secondaries.
type Config struct {
	// Descs is k, the descriptor bound (default 2, max 3).
	Descs int
	// Threads is m, the thread bound (default 2, max 3).
	Threads int
	// MaxRetries and CascadeRetries override the escalation-ladder rungs
	// (zero takes the core defaults, 12 and 4).
	MaxRetries     int
	CascadeRetries int
	// FailHard selects RecoveryPolicy.Degrade=false: exhaustion fails the
	// call (ErrRecoveryFailed) instead of degrading it.
	FailHard bool
	// Supervision names a restart strategy ("one-for-one", "rest-for-one",
	// "all-for-one"); empty keeps the flat escalation ladder. With a
	// strategy set, server µ-reboots charge the root supervisor's
	// restart-intensity budget.
	Supervision string
	// RestartIntensity overrides the supervision budget (zero takes
	// core.DefaultRestartIntensity).
	RestartIntensity int
	// FaultActions is the runtime fault-handler layer (kind name →
	// reboot|retry|degrade), applied before the spec's sm_fault
	// declarations exactly like core.System.HandleFault.
	FaultActions map[string]string
	// Kinds is the injected fault-kind pool; nil takes DefaultKinds().
	Kinds []fault.Kind
	// Secondaries is the number of during-recovery secondary faults armed
	// per episode variant (default 2; negative disables the
	// during-recovery pass).
	Secondaries int
	// MaxStates bounds the total explored states, operational and episode
	// combined (default 1 << 20). Exceeding it is an error: a state-space
	// blowup is a regression, not a truncated pass.
	MaxStates int
	// Deadline bounds wall-clock time (zero: none).
	Deadline time.Duration
}

// DefaultKinds is the model's injection pool when Config.Kinds is nil:
// the eight single-core kinds of the taxonomy, matching the shaped SWIFI
// campaigns' default pool.
func DefaultKinds() []fault.Kind {
	return []fault.Kind{
		fault.KindRegisterFlip, fault.KindHang, fault.KindLivelock,
		fault.KindDescCorruption, fault.KindStorageCrash,
		fault.KindStorageCorruption, fault.KindMessageLoss, fault.KindMessageDup,
	}
}

// Diagnostic is one model-checker finding: an SG2xx code with a witness
// trace and, when the violation has a runnable dynamic analog, a lowered
// SWIFI repro plan.
type Diagnostic struct {
	// Code is the stable diagnostic code (SG2xx).
	Code string
	// Severity is the finding's gravity (speclint's scale).
	Severity speclint.Severity
	// Service is the interface the finding is about.
	Service string
	// Message is the human-readable finding.
	Message string
	// Witness is the counterexample: the operational path to the faulted
	// configuration followed by the recovery episode, step by step.
	Witness []string
	// Repro is the lowered SWIFI injection plan, nil when the violation
	// has no runnable analog (pure spec-shape counterexamples).
	Repro *Repro
}

// String formats the diagnostic like a speclint finding.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s: %s", d.Service, d.Code, d.Severity, d.Message)
}

// Report is the result of checking one spec.
type Report struct {
	// Service is the checked interface.
	Service string
	// Descs and Threads echo the resolved exploration bounds (after
	// defaulting), so reports are self-describing.
	Descs, Threads int
	// States is the number of distinct reachable operational
	// configurations (the BFS frontier union).
	States int
	// EpisodeStates is the number of distinct recovery-episode states
	// stepped through across all injections.
	EpisodeStates int
	// Episodes is the number of fault injections simulated.
	Episodes int
	// Trajectory is the operational BFS frontier size per depth — the
	// state-count trajectory the CI budget guard prints.
	Trajectory []int
	// Diagnostics holds the SG2xx findings, deterministic order.
	Diagnostics []Diagnostic
	// Verified summarizes each property that held, for `sgc doc`.
	Verified []string
	// Elapsed is the wall-clock checking time.
	Elapsed time.Duration
}

// HasErrors reports whether any diagnostic is error-severity.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == speclint.SevError {
			return true
		}
	}
	return false
}

// normalized fills Config defaults and clamps bounds.
func (c Config) normalized() Config {
	if c.Descs <= 0 {
		c.Descs = 2
	}
	if c.Descs > maxK {
		c.Descs = maxK
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.Threads > maxM {
		c.Threads = maxM
	}
	def := core.DefaultRecoveryPolicy()
	if c.MaxRetries <= 0 {
		c.MaxRetries = def.MaxRetries
	}
	if c.CascadeRetries <= 0 {
		c.CascadeRetries = def.CascadeRetries
	}
	if c.RestartIntensity <= 0 {
		c.RestartIntensity = core.DefaultRestartIntensity
	}
	if len(c.Kinds) == 0 {
		c.Kinds = DefaultKinds()
	}
	if c.Secondaries == 0 {
		c.Secondaries = 2
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 20
	}
	return c
}

// Check explores the spec's product automaton under cfg and reports the
// verified properties and any SG2xx violations. It fails (error, not
// diagnostic) when the spec cannot be compiled or the exploration budget
// is exceeded.
func Check(spec *core.Spec, cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	m, err := newMachine(spec, cfg)
	if err != nil {
		return nil, err
	}
	return m.check()
}
