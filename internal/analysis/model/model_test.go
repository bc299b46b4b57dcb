package model

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"superglue/internal/analysis/speclint"
	"superglue/internal/core"
	"superglue/internal/idl"
	"superglue/internal/services/builtin"
)

func parseBuiltin(t *testing.T, service string) *core.Spec {
	t.Helper()
	for _, src := range builtin.Sources() {
		if src.Service != service {
			continue
		}
		spec, err := idl.Parse(src.Service, src.IDL)
		if err != nil {
			t.Fatalf("parse builtin %s: %v", service, err)
		}
		return spec
	}
	t.Fatalf("no builtin service %q", service)
	return nil
}

func parseFixture(t *testing.T, name, service string) *core.Spec {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	spec, err := idl.Parse(service, string(src))
	if err != nil {
		t.Fatalf("parse fixture %s: %v", name, err)
	}
	return spec
}

// TestBuiltinsVerifyClean is the tentpole's headline property: all six
// embedded specs pass every checked property under the deployment
// defaults, with small state spaces.
func TestBuiltinsVerifyClean(t *testing.T) {
	for _, src := range builtin.Sources() {
		src := src
		t.Run(src.Service, func(t *testing.T) {
			spec, err := idl.Parse(src.Service, src.IDL)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			rep, err := Check(spec, Config{})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if rep.HasErrors() {
				for _, d := range rep.Diagnostics {
					t.Errorf("unexpected diagnostic: %s", d)
					for _, w := range d.Witness {
						t.Logf("  witness: %s", w)
					}
				}
			}
			if len(rep.Verified) != 4 {
				t.Errorf("Verified = %d entries, want 4", len(rep.Verified))
			}
			if rep.States == 0 || rep.Episodes == 0 {
				t.Errorf("empty exploration: states=%d episodes=%d", rep.States, rep.Episodes)
			}
			if len(rep.Trajectory) == 0 {
				t.Errorf("no trajectory recorded")
			}
			t.Logf("%s: %d states, %d episodes, %d episode steps, trajectory %v",
				src.Service, rep.States, rep.Episodes, rep.EpisodeStates, rep.Trajectory)
		})
	}
}

// TestBrokenFixtures seeds each SG2xx violation and checks the finding,
// its witness, and the lowered repro plan.
func TestBrokenFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		service  string
		cfg      Config
		code     string
		kind     string // expected repro kind
		shape    string
		expected string // predicted trial outcome
	}{
		{
			fixture: "ramfs_retry.sg", service: "ramfs",
			cfg:  Config{FailHard: true},
			code: "SG201", kind: "storage-corruption",
			shape: "storm", expected: "not recovered",
		},
		{
			fixture: "event_noreset.sg", service: "event",
			cfg:  Config{},
			code: "SG202", kind: "desc-corruption",
			shape: "storm", expected: "not recovered",
		},
		{
			fixture: "ramfs_noclass.sg", service: "ramfs",
			cfg:  Config{},
			code: "SG203", kind: "storage-corruption",
			shape: "storm", expected: "degraded",
		},
		{
			fixture: "lock_budget1.sg", service: "lock",
			cfg:  Config{},
			code: "SG204", kind: "desc-corruption",
			shape: "during-recovery", expected: "degraded",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.fixture, func(t *testing.T) {
			spec := parseFixture(t, tc.fixture, tc.service)
			rep, err := Check(spec, tc.cfg)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			var hit *Diagnostic
			for i := range rep.Diagnostics {
				d := &rep.Diagnostics[i]
				if d.Code == tc.code && d.Severity == speclint.SevError {
					hit = d
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %s error diagnostic; got %v", tc.code, rep.Diagnostics)
			}
			if !rep.HasErrors() {
				t.Errorf("HasErrors() = false with an error diagnostic")
			}
			if len(rep.Verified) != 0 {
				t.Errorf("Verified non-empty on a failing spec: %v", rep.Verified)
			}
			if hit.Service != tc.service {
				t.Errorf("Service = %q, want %q", hit.Service, tc.service)
			}
			if len(hit.Witness) < 2 {
				t.Errorf("witness too short: %v", hit.Witness)
			}
			if hit.Repro == nil {
				t.Fatalf("no repro plan lowered")
			}
			r := hit.Repro
			if r.Service != tc.service || r.Shape != tc.shape {
				t.Errorf("repro service/shape = %q/%q, want %q/%q", r.Service, r.Shape, tc.service, tc.shape)
			}
			if len(r.Kinds) != 1 || r.Kinds[0] != tc.kind {
				t.Errorf("repro kinds = %v, want [%s]", r.Kinds, tc.kind)
			}
			if r.Predicted != tc.expected {
				t.Errorf("repro predicted = %q, want %q", r.Predicted, tc.expected)
			}
			if r.Trials != 1 || r.Seed == 0 {
				t.Errorf("repro trials/seed = %d/%d, want 1 trial with a pinned seed", r.Trials, r.Seed)
			}
			t.Logf("%s: %s", tc.code, hit.Message)
			for _, w := range hit.Witness {
				t.Logf("  witness: %s", w)
			}
		})
	}
}

// TestFixtureSpecificShapes pins the semantic details of each seeded
// violation beyond the code itself.
func TestFixtureSpecificShapes(t *testing.T) {
	t.Run("sg201_needs_fail_hard", func(t *testing.T) {
		// Under the default degrade policy the same misdeclaration is an
		// acceptable degradation, not a coverage hole.
		spec := parseFixture(t, "ramfs_retry.sg", "ramfs")
		rep, err := Check(spec, Config{})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		for _, d := range rep.Diagnostics {
			if d.Code == "SG201" {
				t.Errorf("SG201 reported under degrade policy: %s", d)
			}
		}
	})
	t.Run("sg202_witness_names_wait", func(t *testing.T) {
		spec := parseFixture(t, "event_noreset.sg", "event")
		rep, err := Check(spec, Config{})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		found := false
		for _, d := range rep.Diagnostics {
			if d.Code != "SG202" {
				continue
			}
			found = true
			joined := strings.Join(d.Witness, "\n")
			if !strings.Contains(joined, "evt_wait") {
				t.Errorf("SG202 witness does not name the broken wait:\n%s", joined)
			}
		}
		if !found {
			t.Fatalf("no SG202 diagnostic")
		}
	})
	t.Run("sg203_single_fault_under_declared_supervision", func(t *testing.T) {
		// The same fixture checked WITH an explicit supervision strategy
		// reports SG203 from the main pass, naming that strategy.
		spec := parseFixture(t, "ramfs_noclass.sg", "ramfs")
		rep, err := Check(spec, Config{Supervision: "all-for-one"})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		found := false
		for _, d := range rep.Diagnostics {
			if d.Code == "SG203" && d.Severity == speclint.SevError {
				found = true
				if !strings.Contains(d.Message, "all-for-one") {
					t.Errorf("SG203 message does not name the strategy: %s", d.Message)
				}
			}
		}
		if !found {
			t.Fatalf("no SG203 error under explicit supervision")
		}
	})
	t.Run("sg204_lowered_budget_note", func(t *testing.T) {
		spec := parseFixture(t, "lock_budget1.sg", "lock")
		rep, err := Check(spec, Config{})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		for _, d := range rep.Diagnostics {
			if d.Code != "SG204" {
				continue
			}
			if d.Repro == nil {
				t.Fatalf("no repro")
			}
			if d.Repro.MaxRetries != 1 {
				t.Errorf("repro MaxRetries = %d, want the spec budget 1", d.Repro.MaxRetries)
			}
			if d.Repro.StormFaults < 1 {
				t.Errorf("repro secondaries = %d, want >= 1", d.Repro.StormFaults)
			}
			return
		}
		t.Fatalf("no SG204 diagnostic")
	})
}

// TestBuiltinsCleanAcrossPolicies is the property-test satellite: clean
// specs stay clean across seeds and policy variations. A walk budget of
// B absorbs B mid-walk faults, so the budget must be at least the
// during-recovery secondary count (a genuine configuration constraint,
// documented in MODELCHECK.md): MaxRetries is drawn from
// [Secondaries, 15], boundary included.
func TestBuiltinsCleanAcrossPolicies(t *testing.T) {
	strategies := []string{"", "one-for-one", "rest-for-one", "all-for-one"}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		secondaries := 1 + rng.Intn(2)
		cfg := Config{
			Descs:          1 + rng.Intn(2),
			Threads:        1 + rng.Intn(2),
			MaxRetries:     secondaries + rng.Intn(16-secondaries),
			CascadeRetries: 1 + rng.Intn(4),
			Supervision:    strategies[rng.Intn(len(strategies))],
			Secondaries:    secondaries,
		}
		for _, src := range builtin.Sources() {
			spec, err := idl.Parse(src.Service, src.IDL)
			if err != nil {
				t.Fatalf("parse %s: %v", src.Service, err)
			}
			rep, err := Check(spec, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, src.Service, err)
			}
			if rep.HasErrors() {
				for _, d := range rep.Diagnostics {
					t.Errorf("seed %d cfg %+v: %s", seed, cfg, d)
				}
			}
		}
	}
}

// TestCheckDeterministic: two runs of the same check produce identical
// diagnostics, witnesses, and repro plans.
func TestCheckDeterministic(t *testing.T) {
	spec := parseFixture(t, "lock_budget1.sg", "lock")
	a, err := Check(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Check(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Diagnostics, b.Diagnostics) {
		t.Errorf("diagnostics differ between runs:\n%v\n%v", a.Diagnostics, b.Diagnostics)
	}
	if a.States != b.States || a.Episodes != b.Episodes {
		t.Errorf("state counts differ: %d/%d vs %d/%d", a.States, a.Episodes, b.States, b.Episodes)
	}
}

// TestBudgetEnforced: a tiny MaxStates budget fails loudly instead of
// truncating the pass.
func TestBudgetEnforced(t *testing.T) {
	spec := parseBuiltin(t, "lock")
	_, err := Check(spec, Config{MaxStates: 3})
	if err == nil {
		t.Fatalf("no error with MaxStates=3")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error does not mention the budget: %v", err)
	}
}
