package model

import (
	"fmt"
	"strings"
	"testing"

	"superglue/internal/analysis/speclint"
	"superglue/internal/fault"
	"superglue/internal/swifi"
)

// findRepro checks the fixture and returns the repro plan of the first
// error diagnostic with the given code.
func findRepro(t *testing.T, fixture, service, code string, cfg Config) *Repro {
	t.Helper()
	spec := parseFixture(t, fixture, service)
	rep, err := Check(spec, cfg)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	for _, d := range rep.Diagnostics {
		if d.Code == code && d.Severity == speclint.SevError {
			if d.Repro == nil {
				t.Fatalf("%s has no repro plan", code)
			}
			return d.Repro
		}
	}
	t.Fatalf("no %s error diagnostic", code)
	return nil
}

// replay lowers the plan to a campaign, runs it, and returns the single
// trial's outcome string.
func replay(t *testing.T, r *Repro) string {
	t.Helper()
	cfg, err := r.CampaignConfig()
	if err != nil {
		t.Fatalf("lower to campaign: %v", err)
	}
	res, err := swifi.Run(cfg)
	if err != nil {
		t.Fatalf("run lowered campaign: %v", err)
	}
	if len(res.Trials) != 1 {
		t.Fatalf("lowered campaign ran %d trials, want 1", len(res.Trials))
	}
	t.Logf("dynamic trial: %s (%s)", res.Trials[0].Outcome, res.Trials[0].Detail)
	return res.Trials[0].Outcome.String()
}

// TestAgreementSG201: the fail-hard misrouted-corruption witness replays
// dynamically as an unrecovered trial.
func TestAgreementSG201(t *testing.T) {
	r := findRepro(t, "ramfs_retry.sg", "ramfs", "SG201", Config{FailHard: true})
	if got := replay(t, r); !strings.HasPrefix(got, r.Predicted) {
		t.Errorf("dynamic outcome %q, predicted %q", got, r.Predicted)
	}
}

// TestAgreementSG203: the unclassified-corruption reboot loop replays as
// a supervisor-degraded trial (restart intensity exhausted).
func TestAgreementSG203(t *testing.T) {
	r := findRepro(t, "ramfs_noclass.sg", "ramfs", "SG203", Config{})
	if r.Policy == "" {
		t.Fatalf("SG203 repro carries no supervision policy")
	}
	if got := replay(t, r); got != r.Predicted {
		t.Errorf("dynamic outcome %q, predicted %q", got, r.Predicted)
	}
}

// TestAgreementSG204: the walk budget's boundary agrees both ways. With
// lock_budget1.sg's recovery_budget of 1, one mid-recovery fault is
// absorbed (no SG204, and the during-recovery plan replays as recovered);
// a second exhausts the budget, and the SG204 witness replays degraded.
func TestAgreementSG204(t *testing.T) {
	for _, tc := range []struct {
		secondaries int
		sg204       bool
	}{{1, false}, {2, true}} {
		tc := tc
		t.Run(fmt.Sprintf("secondaries=%d", tc.secondaries), func(t *testing.T) {
			cfg := Config{Secondaries: tc.secondaries}
			if tc.sg204 {
				r := findRepro(t, "lock_budget1.sg", "lock", "SG204", cfg)
				if got := replay(t, r); got != r.Predicted {
					t.Errorf("dynamic outcome %q, predicted %q", got, r.Predicted)
				}
				return
			}
			spec := parseFixture(t, "lock_budget1.sg", "lock")
			rep, err := Check(spec, cfg)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			for _, d := range rep.Diagnostics {
				if d.Code == "SG204" {
					t.Errorf("unexpected %s", d)
				}
			}
			m, err := newMachine(spec, cfg.normalized())
			if err != nil {
				t.Fatal(err)
			}
			r := m.lowerForMode("during-recovery", fault.KindDescCorruption, OutRecovered)
			if got := replay(t, r); got != r.Predicted {
				t.Errorf("dynamic outcome %q, predicted %q", got, r.Predicted)
			}
		})
	}
}

// TestAgreementSG202PlanShape: the wakeup-replay cycle has no faithful
// dynamic analog on the (correct) builtin spec — the repro documents that
// in its note — but the lowered plan must still be well-formed: one trial,
// one fault of the witness kind, deterministic for the pinned seed.
func TestAgreementSG202PlanShape(t *testing.T) {
	r := findRepro(t, "event_noreset.sg", "event", "SG202", Config{})
	if r.Note == "" {
		t.Errorf("SG202 repro carries no caveat note")
	}
	cfg, err := r.CampaignConfig()
	if err != nil {
		t.Fatalf("lower to campaign: %v", err)
	}
	opp, err := swifi.Opportunities(cfg)
	if err != nil {
		t.Fatalf("opportunities: %v", err)
	}
	plan := swifi.PlanAt(cfg, opp, 0)
	if len(plan) != 1 {
		t.Fatalf("plan has %d entries, want 1", len(plan))
	}
	if got := plan[0].Kind.String(); got != r.Kinds[0] {
		t.Errorf("planned kind %s, want %s", got, r.Kinds[0])
	}
	if plan2 := swifi.PlanAt(cfg, opp, 0); plan2[0] != plan[0] {
		t.Errorf("plan not deterministic: %+v vs %+v", plan[0], plan2[0])
	}
}
