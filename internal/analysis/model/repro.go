package model

import (
	"superglue/internal/fault"
)

// Repro is a concrete SWIFI injection plan lowered from a model-checker
// witness: a swifi.Config-shaped recipe (service, campaign shape, kind
// pool, seed, trial schedule, policy knobs) that replays the static
// counterexample as one deterministic dynamic trial. The routing layers
// the checker assumed are carried along: FaultActions installs the same
// effective per-kind actions through core.System.HandleFault (the
// handler layer precedes sm_fault declarations, so a broken fixture
// spec's policy can be replayed onto the corresponding builtin
// workload), and MaxRetries/CascadeRetries/FailHard pin the recovery
// policy the witness was checked under.
type Repro struct {
	// Service is the workload/campaign target (the spec's service name;
	// for fixture specs derived from a builtin service, the builtin's
	// workload drives the plan).
	Service string `json:"service"`
	// Shape is the swifi campaign shape ("storm" or "during-recovery").
	Shape string `json:"shape"`
	// Kinds is the fault-kind pool. Witness plans pin a single kind (or
	// a primary/secondary pair), making the planner's kind draws
	// deterministic for any seed.
	Kinds []string `json:"kinds"`
	// StormFaults is the storm burst size, or the during-recovery
	// deferred-secondary count.
	StormFaults int `json:"storm_faults,omitempty"`
	// Trials and Seed: the plan is trial 0 of a 1-trial campaign.
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed"`
	// Policy is the supervision strategy to install per trial.
	Policy string `json:"policy,omitempty"`
	// FaultActions are runtime per-kind action overrides (HandleFault).
	FaultActions map[string]string `json:"fault_actions,omitempty"`
	// MaxRetries/CascadeRetries/FailHard pin the recovery policy.
	MaxRetries     int  `json:"max_retries,omitempty"`
	CascadeRetries int  `json:"cascade_retries,omitempty"`
	FailHard       bool `json:"fail_hard,omitempty"`
	// Predicted is the swifi outcome string the trial must classify as
	// for the dynamic run to agree with the static verdict.
	Predicted string `json:"predicted"`
	// Note carries caveats (e.g. spec-shape witnesses that need the
	// broken spec's stubs rather than a policy override).
	Note string `json:"note,omitempty"`
}

// reproSeed is the fixed campaign seed of lowered plans. Witness plans
// restrict the kind pool to the witness's kinds, so the planner's kind
// draws are seed-independent and any fixed seed yields the plan.
const reproSeed = 1

// effectiveActions collects the per-kind routing the checker used for
// the given kinds (handler layer merged over sm_fault declarations), as
// HandleFault overrides for the dynamic run.
func (m *machine) effectiveActions(kinds ...fault.Kind) map[string]string {
	out := make(map[string]string)
	for _, k := range kinds {
		out[k.String()] = m.routeKind(k).String()
	}
	return out
}

// lowerSingle lowers a single-fault witness to a 1-trial storm plan
// (burst size 1: exactly one typed fault of the witness kind).
func (m *machine) lowerSingle(k fault.Kind, out Outcome, note string) *Repro {
	return &Repro{
		Service:      m.spec.Service,
		Shape:        "storm",
		Kinds:        []string{k.String()},
		StormFaults:  1,
		Trials:       1,
		Seed:         reproSeed,
		Policy:       m.cfg.Supervision,
		FaultActions: m.effectiveActions(k),
		// The policy the checker stepped: the spec's effective policy, so
		// a recovery_budget compiled into a fixture spec replays on the
		// builtin workload as its MaxRetries.
		MaxRetries:     m.pol.MaxRetries,
		CascadeRetries: m.pol.CascadeRetries,
		FailHard:       !m.pol.Degrade,
		Predicted:      out.PredictedTrial(),
		Note:           note,
	}
}

// lowerForMode lowers a witness according to the episode mode it was
// found in: a during-recovery witness arms the checked secondaries as
// the shape's deferred faults.
func (m *machine) lowerForMode(mode string, k fault.Kind, out Outcome) *Repro {
	r := m.lowerSingle(k, out, "")
	if mode == "during-recovery" {
		r.Shape = mode
		r.StormFaults = m.cfg.Secondaries
	}
	return r
}

// lowerIntensity lowers an SG203 single-fault witness: one fault whose
// reboot loop charges past the supervision budget.
func (m *machine) lowerIntensity(k fault.Kind, strategy string) *Repro {
	r := m.lowerSingle(k, OutIntensity, "")
	r.Policy = strategy
	return r
}

// lowerStorm lowers the SG203 storm-burst analysis: a burst of the
// restart-heaviest kind sized to exhaust the supervision window.
func (m *machine) lowerStorm(k fault.Kind, burst int, strategy string) *Repro {
	r := m.lowerIntensity(k, strategy)
	r.StormFaults = burst
	return r
}
