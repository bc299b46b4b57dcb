package swifi

import (
	"fmt"
	"math/rand"
	"testing"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/lock"
)

func TestClassifyDeterministic(t *testing.T) {
	inj := &Injector{profile: kernel.RegProfile{StackUseFrac: 1.0, MappedBits: 20, RetValFrac: 1.0},
		rng: rand.New(rand.NewSource(1))}
	if got := inj.classify(kernel.ClassDead, 5); got != EffectNone {
		t.Errorf("dead → %v; want none", got)
	}
	if got := inj.classify(kernel.ClassData, 5); got != EffectCrash {
		t.Errorf("data → %v; want crash", got)
	}
	if got := inj.classify(kernel.ClassPtr, 5); got != EffectCrash {
		t.Errorf("ptr → %v; want crash", got)
	}
	if got := inj.classify(kernel.ClassLoop, 20); got != EffectHang {
		t.Errorf("loop hi-bit → %v; want hang", got)
	}
	if got := inj.classify(kernel.ClassLoop, 2); got != EffectCrash {
		t.Errorf("loop lo-bit → %v; want crash", got)
	}
	if got := inj.classify(kernel.ClassStackPtr, 25); got != EffectSegfault {
		t.Errorf("stack hi-bit → %v; want segfault", got)
	}
	if got := inj.classify(kernel.ClassStackPtr, 5); got != EffectCrash {
		t.Errorf("stack lo-bit → %v; want crash", got)
	}
	if got := inj.classify(kernel.ClassRetVal, 5); got != EffectRetvalSilent {
		t.Errorf("retval (frac 1.0) → %v; want propagated", got)
	}
	// With StackUseFrac 0: the corrupted pointer is reloaded before use.
	inj2 := &Injector{profile: kernel.RegProfile{StackUseFrac: 0, MappedBits: 20},
		rng: rand.New(rand.NewSource(1))}
	if got := inj2.classify(kernel.ClassStackPtr, 25); got != EffectNone {
		t.Errorf("stack (use-frac 0) → %v; want none", got)
	}
}

func TestSingleTrialCrashRecovers(t *testing.T) {
	cfg := Config{
		Service:  "lock",
		Workload: lock.NewWorkload,
		Iters:    3,
		Trials:   1,
		Seed:     42,
		// Force every activated fault to be a recoverable crash.
		Profile: kernel.RegProfile{DeadFrac: 0, PtrFrac: 1.0, LoopFrac: 0, StackUseFrac: 1.0, MappedBits: 32, RetValFrac: 0},
		Mode:    core.OnDemand,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Injected != 1 {
		t.Fatalf("Injected = %d; want 1", res.Injected)
	}
	tr := res.Trials[0]
	if tr.Outcome != OutcomeRecovered && tr.Outcome != OutcomeUndetected {
		t.Fatalf("outcome = %v (%s); want recovered (or undetected for ESP-reload)", tr.Outcome, tr.Detail)
	}
}

func TestCampaignSmallLock(t *testing.T) {
	cfg := Config{
		Service:  "lock",
		Workload: lock.NewWorkload,
		Iters:    3,
		Trials:   40,
		Seed:     7,
		Profile:  Profiles()["lock"],
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := res.Recovered + res.Segfault + res.Propagated + res.Other + res.Undetected
	if total != res.Injected || total != 40 {
		t.Fatalf("outcome sum %d ≠ injected %d", total, res.Injected)
	}
	if res.Recovered == 0 {
		t.Error("no recovered faults in 40 trials; recovery machinery broken?")
	}
	if res.ActivationRatio() < 0.5 {
		t.Errorf("activation ratio %.2f suspiciously low", res.ActivationRatio())
	}
	if res.SuccessRate() < 0.5 {
		details := ""
		for _, tr := range res.Trials {
			if tr.Outcome != OutcomeRecovered && tr.Outcome != OutcomeUndetected {
				details += fmt.Sprintf("  %v %v: %s\n", tr.Injection.Effect, tr.Outcome, tr.Detail)
			}
		}
		t.Errorf("success rate %.2f suspiciously low:\n%s", res.SuccessRate(), details)
	}
}

// TestCampaignReproducible: same seed, same aggregate counts.
func TestCampaignReproducible(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			Service: "lock", Workload: lock.NewWorkload,
			Iters: 2, Trials: 15, Seed: 99, Profile: Profiles()["lock"],
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Recovered != b.Recovered || a.Segfault != b.Segfault ||
		a.Propagated != b.Propagated || a.Other != b.Other || a.Undetected != b.Undetected {
		t.Fatalf("campaign not reproducible: %+v vs %+v", a, b)
	}
}

// TestAllTargetsSmokeCampaign runs a small campaign against every service.
func TestAllTargetsSmokeCampaign(t *testing.T) {
	for _, svc := range Targets() {
		svc := svc
		t.Run(svc, func(t *testing.T) {
			res, err := Run(Config{
				Service:  svc,
				Workload: Workloads()[svc],
				Iters:    3,
				Trials:   25,
				Seed:     1234,
				Profile:  Profiles()[svc],
			})
			if err != nil {
				t.Fatalf("Run(%s): %v", svc, err)
			}
			bad := 0
			for _, tr := range res.Trials {
				if tr.Outcome == OutcomeOther && tr.Injection.Effect == EffectCrash {
					// A detected crash the machinery failed to recover:
					// that is a recovery bug, not an expected outcome.
					bad++
					t.Errorf("%s: unrecovered crash: %s (inj %+v)", svc, tr.Detail, tr.Injection)
				}
			}
			if res.SuccessRate() < 0.6 {
				t.Errorf("%s: success rate %.2f below sanity floor", svc, res.SuccessRate())
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Service: "x", Workload: lock.NewWorkload, Trials: 0}); err == nil {
		t.Fatal("Run accepted zero trials")
	}
}

func TestOutcomeAndEffectStrings(t *testing.T) {
	if OutcomeRecovered.String() != "recovered" || OutcomeSegfault.String() != "not recovered (segfault)" {
		t.Error("outcome strings wrong")
	}
	if EffectCrash.String() != "crash" || EffectRetvalSilent.String() != "retval-propagated" {
		t.Error("effect strings wrong")
	}
}

// TestTrialSystemBuildAllocs pins a trial's fixed setup cost: booting a
// trial machine (three storage replicas, the target's workload and
// every service it registers) reuses each service's parsed spec and
// compiled tables instead of re-parsing and re-compiling the IDL. The
// bound sits above the 72–104 allocs/op this takes per target; parsing
// and compiling per trial took 151–235.
func TestTrialSystemBuildAllocs(t *testing.T) {
	const bound = 120
	for _, svc := range Targets() {
		cfg := Config{Service: svc, Workload: Workloads()[svc], Iters: 5, Mode: core.OnDemand, Replicas: 3}
		if _, _, _, err := buildTrialSystem(cfg); err != nil {
			t.Fatalf("%s: buildTrialSystem: %v", svc, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, err := buildTrialSystem(cfg); err != nil {
				t.Fatalf("%s: buildTrialSystem: %v", svc, err)
			}
		})
		if allocs > bound {
			t.Errorf("%s: buildTrialSystem does %.0f allocs/op, want <= %d", svc, allocs, bound)
		}
	}
}
