package swifi

import (
	"encoding/json"
	"reflect"
	"testing"

	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/kernel"
	"superglue/internal/services/lock"
	"superglue/internal/services/ramfs"
)

func TestParseShape(t *testing.T) {
	for sh := ShapeLegacy; sh <= ShapeDuringRecovery; sh++ {
		got, ok := ParseShape(sh.String())
		if !ok || got != sh {
			t.Errorf("ParseShape(%q) = %v, %v", sh.String(), got, ok)
		}
	}
	if got, ok := ParseShape("during_recovery"); !ok || got != ShapeDuringRecovery {
		t.Errorf("underscored shape name rejected: %v, %v", got, ok)
	}
	if _, ok := ParseShape("tsunami"); ok {
		t.Error("ParseShape accepted an unknown shape")
	}
}

// runShaped runs one shaped campaign against a service with fixed
// parameters, for the determinism and smoke tests below.
func runShaped(t *testing.T, svc string, shape Shape, workers int, policy string) *Result {
	t.Helper()
	res, err := Run(Config{
		Service:  svc,
		Workload: Workloads()[svc],
		Iters:    3,
		Trials:   24,
		Seed:     2026,
		Profile:  Profiles()[svc],
		Trace:    true,
		Workers:  workers,
		Shape:    shape,
		Policy:   policy,
	})
	if err != nil {
		t.Fatalf("Run(%s, %v, workers=%d): %v", svc, shape, workers, err)
	}
	return res
}

// TestShapedDeterminism is the analogue of TestParallelDeterminism for
// the new campaign shapes: for a fixed seed, the full Result — plan,
// outcomes, per-kind columns, merged trace snapshot — is deeply equal
// between sequential and 8-worker runs.
func TestShapedDeterminism(t *testing.T) {
	for _, tc := range []struct {
		svc    string
		shape  Shape
		policy string
	}{
		{"lock", ShapeCorrelated, ""},
		{"ramfs", ShapeStorm, "one-for-one"},
		{"event", ShapeDuringRecovery, "all-for-one"},
	} {
		t.Run(tc.svc+"/"+tc.shape.String(), func(t *testing.T) {
			seq := runShaped(t, tc.svc, tc.shape, 1, tc.policy)
			par := runShaped(t, tc.svc, tc.shape, 8, tc.policy)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("workers=8 result differs from workers=1\nseq: %+v\npar: %+v", seq, par)
			}
			a, _ := json.Marshal(seq)
			b, _ := json.Marshal(par)
			if string(a) != string(b) {
				t.Error("shaped campaign JSON differs between worker counts")
			}
		})
	}
}

// TestShapedCampaignSmoke runs every shape against a storage-backed and a
// non-storage service and sanity-checks the aggregate bookkeeping.
func TestShapedCampaignSmoke(t *testing.T) {
	for _, svc := range []string{"lock", "ramfs"} {
		for _, shape := range []Shape{ShapeCorrelated, ShapeStorm, ShapeDuringRecovery} {
			t.Run(svc+"/"+shape.String(), func(t *testing.T) {
				res := runShaped(t, svc, shape, 0, "")
				sum := res.Recovered + res.Segfault + res.Propagated + res.Other + res.Degraded + res.Undetected
				if sum != res.Injected || res.Injected != 24 {
					t.Errorf("outcome sum %d ≠ injected %d", sum, res.Injected)
				}
				if res.Kinds == nil {
					t.Fatal("shaped campaign has no per-kind breakdown")
				}
				kindTotal := 0
				for kind, ks := range res.Kinds {
					if _, ok := fault.ParseKind(kind); !ok {
						t.Errorf("unknown kind column %q", kind)
					}
					kindTotal += ks.Injected
				}
				if kindTotal == 0 {
					t.Error("no fired kinds recorded across 24 shaped trials")
				}
				for _, tr := range res.Trials {
					if len(tr.Planned) == 0 {
						t.Fatal("shaped trial carries no plan")
					}
				}
				// The taxonomy must be exercised end to end: most shaped
				// trials are absorbed (recovered or typed degradation).
				if res.Recovered+res.Degraded == 0 {
					t.Errorf("nothing recovered or degraded: %+v", res)
				}
			})
		}
	}
}

// TestStormRespectsBurstSize pins StormFaults plumbing and its default.
func TestStormRespectsBurstSize(t *testing.T) {
	res, err := Run(Config{
		Service:     "lock",
		Workload:    Workloads()["lock"],
		Iters:       3,
		Trials:      4,
		Seed:        7,
		Profile:     Profiles()["lock"],
		Shape:       ShapeStorm,
		StormFaults: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, tr := range res.Trials {
		if len(tr.Planned) != 3 {
			t.Fatalf("plan size = %d; want StormFaults=3", len(tr.Planned))
		}
	}
	res, err = Run(Config{
		Service:  "lock",
		Workload: Workloads()["lock"],
		Iters:    3,
		Trials:   2,
		Seed:     7,
		Profile:  Profiles()["lock"],
		Shape:    ShapeStorm,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(res.Trials[0].Planned); got != DefaultStormFaults {
		t.Fatalf("default plan size = %d; want %d", got, DefaultStormFaults)
	}
}

// TestShapedInertFlipUndetected: a shaped trial whose only fired fault is
// a dead-register flip activated nothing, so it is booked undetected (as
// the legacy classifier books the same flip), not recovered.
func TestShapedInertFlipUndetected(t *testing.T) {
	res, err := Run(Config{
		Service:  "lock",
		Workload: Workloads()["lock"],
		Iters:    3,
		Trials:   1,
		Seed:     7,
		// Every general-purpose register is dead and a corrupted stack or
		// frame pointer is reloaded before use: no flip is ever observed.
		Profile:     kernel.RegProfile{DeadFrac: 1, StackUseFrac: 0, MappedBits: 20},
		Shape:       ShapeStorm,
		StormFaults: 1,
		Kinds:       []fault.Kind{fault.KindRegisterFlip},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := res.Trials[0]
	if !tr.Planned[0].Fired || tr.Injection.Effect != EffectNone {
		t.Fatalf("want one fired inert flip, got plan %+v injection %+v", tr.Planned, tr.Injection)
	}
	if tr.Outcome != OutcomeUndetected || tr.Detail == "" {
		t.Errorf("inert flip booked %v (%q); want undetected with a cause", tr.Outcome, tr.Detail)
	}
	if ks := res.Kinds[fault.KindRegisterFlip.String()]; ks == nil || ks.Undetected != 1 || ks.Recovered != 0 {
		t.Errorf("register-flip column %+v; want one undetected trial", ks)
	}
}

// TestKindPoolRestriction: Config.Kinds restricts what shaped trials may
// inject (the -kinds flag).
func TestKindPoolRestriction(t *testing.T) {
	res, err := Run(Config{
		Service:  "lock",
		Workload: Workloads()["lock"],
		Iters:    3,
		Trials:   12,
		Seed:     11,
		Profile:  Profiles()["lock"],
		Shape:    ShapeStorm,
		Kinds:    []fault.Kind{fault.KindMessageLoss},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, tr := range res.Trials {
		for _, p := range tr.Planned {
			if p.Kind != fault.KindMessageLoss {
				t.Fatalf("planned kind %v escaped the restricted pool", p.Kind)
			}
		}
	}
	// Message loss is transient: the server redoes the call without a
	// µ-reboot, so loss-only storms should essentially always recover.
	if res.Recovered == 0 {
		t.Errorf("no recovered trials in a loss-only storm: %+v", res)
	}
}

// TestApplyPolicy covers the runtime policy switch the -policy flag uses.
func TestApplyPolicy(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lock.Register(sys); err != nil {
		t.Fatal(err)
	}
	if _, err := ramfs.Register(sys); err != nil {
		t.Fatal(err)
	}
	if err := ApplyPolicy(sys, ""); err != nil || sys.Supervisor() != nil {
		t.Fatalf("empty policy: err=%v sup=%v", err, sys.Supervisor())
	}
	if err := ApplyPolicy(sys, "legacy"); err != nil || sys.Supervisor() != nil {
		t.Fatalf("legacy policy: err=%v sup=%v", err, sys.Supervisor())
	}
	if err := ApplyPolicy(sys, "anarchy"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := ApplyPolicy(sys, "rest-for-one"); err != nil {
		t.Fatalf("rest-for-one: %v", err)
	}
	sup := sys.Supervisor()
	if sup == nil || sup.Strategy != core.RestForOne {
		t.Fatalf("supervisor = %+v; want rest-for-one root", sup)
	}
	if len(sup.Children) != len(sys.Servers()) {
		t.Fatalf("root supervises %d children; want all %d servers", len(sup.Children), len(sys.Servers()))
	}
}
