package core

import (
	"errors"
	"testing"

	"superglue/internal/kernel"
)

// failEvery returns an invoke hook that re-fails comp at PhaseEntry on each
// of its first n invocations — a server so broken that every redo faults
// again, exercising the escalation ladder past its first rung.
func failEvery(k *kernel.Kernel, comp kernel.ComponentID, n int) kernel.InvokeHook {
	fired := 0
	return func(t *kernel.Thread, c kernel.ComponentID, fn string, phase kernel.InvokePhase) {
		if c != comp || phase != kernel.PhaseEntry || fired >= n {
			return
		}
		fired++
		_ = k.FailComponent(comp)
	}
}

// TestEscalationDegradesAfterBudget: when every retry and cascading reboot
// faults again, the stub returns a typed ErrDegraded — and the machine keeps
// running, with other servers still usable.
func TestEscalationDegradesAfterBudget(t *testing.T) {
	r := newRig(t, OnDemand)
	r.sys.SetRecoveryPolicy(RecoveryPolicy{MaxRetries: 2, CascadeRetries: 1, Degrade: true})
	k := r.sys.Kernel()
	k.SetInvokeHook(failEvery(k, r.lock, 1000))
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		_, err := st.Call(th, "lock_alloc", 1)
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("err = %v; want ErrDegraded", err)
		}
		if !errors.Is(err, ErrRecoveryFailed) {
			t.Fatalf("err = %v; degradation must also match ErrRecoveryFailed", err)
		}
		var de *DegradedError
		if !errors.As(err, &de) || de.Attempts != 3 {
			t.Fatalf("err = %#v; want *DegradedError after 3 attempts", err)
		}
		if k.Halted() {
			t.Fatal("machine halted; degradation must keep it running")
		}
		// The rest of the machine is healthy: the event server still works.
		k.SetInvokeHook(nil)
		evtStub, serr := r.cl.Stub(r.evt)
		if serr != nil {
			t.Fatalf("Stub(evt): %v", serr)
		}
		if _, serr := evtStub.Call(th, "evt_split", 1, 0, 0); serr != nil {
			t.Errorf("event server unusable after lock degradation: %v", serr)
		}
	})
}

// TestEscalationFailsHardWithoutDegrade: Degrade=false restores the
// pre-policy terminal behavior — ErrRecoveryFailed, not ErrDegraded.
func TestEscalationFailsHardWithoutDegrade(t *testing.T) {
	r := newRig(t, OnDemand)
	r.sys.SetRecoveryPolicy(RecoveryPolicy{MaxRetries: 2, CascadeRetries: 1, Degrade: false})
	k := r.sys.Kernel()
	k.SetInvokeHook(failEvery(k, r.lock, 1000))
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		_, err := st.Call(th, "lock_alloc", 1)
		if !errors.Is(err, ErrRecoveryFailed) {
			t.Fatalf("err = %v; want ErrRecoveryFailed", err)
		}
		if errors.Is(err, ErrDegraded) {
			t.Fatalf("err = %v; must not match ErrDegraded with Degrade off", err)
		}
	})
}

// TestCascadeRebootsDependencies: once plain retries are exhausted, the
// ladder's second rung µ-reboots the server's declared dependencies before
// forcing the server through a fresh reboot.
func TestCascadeRebootsDependencies(t *testing.T) {
	r := newRig(t, OnDemand)
	if err := r.sys.DeclareDependency(r.lock, r.evt); err != nil {
		t.Fatalf("DeclareDependency: %v", err)
	}
	if got := r.sys.Dependencies(r.lock); len(got) != 1 || got[0] != r.evt {
		t.Fatalf("Dependencies = %v; want [%d]", got, r.evt)
	}
	r.sys.SetRecoveryPolicy(RecoveryPolicy{MaxRetries: 2, CascadeRetries: 2, Degrade: true})
	k := r.sys.Kernel()
	// Three faults: two consumed by the plain-retry rung, the third forces
	// one cascading reboot; the fourth attempt succeeds.
	k.SetInvokeHook(failEvery(k, r.lock, 3))
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		if _, err := st.Call(th, "lock_alloc", 1); err != nil {
			t.Fatalf("alloc = %v; want success after one cascade", err)
		}
		if c := st.Metrics().Cascades; c != 1 {
			t.Errorf("cascades = %d; want 1", c)
		}
		if e, _ := k.Epoch(r.evt); e != 1 {
			t.Errorf("dependency epoch = %d; want 1 (cascading reboot must reach it)", e)
		}
		if e, _ := k.Epoch(r.lock); e != 3 {
			t.Errorf("server epoch = %d; want 3 (two retries + one cascade)", e)
		}
	})
}

// TestDependencyDeclarationValidation: both endpoints must be registered.
func TestDependencyDeclarationValidation(t *testing.T) {
	r := newRig(t, OnDemand)
	if err := r.sys.DeclareDependency(kernel.ComponentID(99), r.evt); err == nil {
		t.Fatal("unregistered `from` accepted")
	}
	if err := r.sys.DeclareDependency(r.lock, kernel.ComponentID(99)); err == nil {
		t.Fatal("unregistered `to` accepted")
	}
	// The storage component is a valid dependency target.
	if err := r.sys.DeclareDependency(r.lock, r.sys.StorageComp()); err != nil {
		t.Fatalf("storage dependency rejected: %v", err)
	}
	// Duplicates collapse.
	if err := r.sys.DeclareDependency(r.lock, r.evt); err != nil {
		t.Fatalf("DeclareDependency: %v", err)
	}
	if err := r.sys.DeclareDependency(r.lock, r.evt); err != nil {
		t.Fatalf("DeclareDependency (dup): %v", err)
	}
	if got := r.sys.Dependencies(r.lock); len(got) != 2 {
		t.Fatalf("Dependencies = %v; want exactly [store, evt]", got)
	}
}

// TestSecondFaultDuringWalk: the server fails again while the recovery walk
// replays the creation function; recoverDesc must re-reboot and restart the
// walk, and the original call still completes (recovery during recovery).
func TestSecondFaultDuringWalk(t *testing.T) {
	r := newRig(t, OnDemand)
	k := r.sys.Kernel()
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := k.FailComponent(r.lock); err != nil {
			t.Fatalf("FailComponent: %v", err)
		}
		// The walk's first step is the replayed lock_alloc: fail the server
		// again right there, once.
		k.SetInvokeHook(failEvery(k, r.lock, 1))
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Fatalf("take after mid-walk fault: %v", err)
		}
		if e, _ := k.Epoch(r.lock); e != 2 {
			t.Errorf("epoch = %d; want 2 (reboot + mid-walk re-reboot)", e)
		}
		d, ok := st.Descriptor(DescKey{ID: id})
		if !ok {
			t.Fatal("descriptor lost")
		}
		if cur, _ := k.Epoch(r.lock); d.Epoch != cur {
			t.Errorf("descriptor epoch = %d; want %d", d.Epoch, cur)
		}
	})
}

// TestFaultDuringHoldReplay: the server fails while recovery re-acquires an
// outstanding hold. The hold replay is part of the walk's all-or-nothing
// restoration, so the retry reboots and replays both — and the original
// release still completes with ownership intact.
func TestFaultDuringHoldReplay(t *testing.T) {
	r := newRig(t, OnDemand)
	k := r.sys.Kernel()
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Fatalf("take: %v", err)
		}
		if err := k.FailComponent(r.lock); err != nil {
			t.Fatalf("FailComponent: %v", err)
		}
		// Fail the server at the hold replay (the recovery-time lock_take),
		// once. The pre-fault take above already happened, so the hook armed
		// now only sees recovery traffic.
		injected := false
		k.SetInvokeHook(func(ht *kernel.Thread, c kernel.ComponentID, fn string, phase kernel.InvokePhase) {
			if c == r.lock && fn == "lock_take" && phase == kernel.PhaseEntry && !injected {
				injected = true
				_ = k.FailComponent(r.lock)
			}
		})
		if _, err := st.Call(th, "lock_release", 0, id); err != nil {
			t.Fatalf("release after fault during hold replay: %v", err)
		}
		if !injected {
			t.Fatal("hold-replay fault never injected")
		}
		if m := st.Metrics(); m.HoldReplays < 2 {
			t.Errorf("hold replays = %d; want ≥ 2 (the interrupted one plus the retry)", m.HoldReplays)
		}
		if e, _ := k.Epoch(r.lock); e != 2 {
			t.Errorf("epoch = %d; want 2 (reboot + hold-replay re-reboot)", e)
		}
	})
}

// TestBackoffChargesVirtualTime: with Backoff configured, redo attempts
// sleep in virtual time, doubling per attempt and capped by MaxBackoff.
func TestBackoffChargesVirtualTime(t *testing.T) {
	r := newRig(t, OnDemand)
	r.sys.SetRecoveryPolicy(RecoveryPolicy{MaxRetries: 8, Backoff: 100, Degrade: true})
	k := r.sys.Kernel()
	// Two consecutive faults: attempt 1 sleeps 100µs, attempt 2 sleeps
	// 200µs, then the call succeeds.
	k.SetInvokeHook(failEvery(k, r.lock, 2))
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		if _, err := st.Call(th, "lock_alloc", 1); err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if now := k.Now(); now < 300 {
			t.Errorf("virtual time = %dµs; want ≥ 300 (100 + 200 backoff)", now)
		}
	})
}

// TestBackoffSchedule checks the doubling-with-cap arithmetic directly.
func TestBackoffSchedule(t *testing.T) {
	p := RecoveryPolicy{Backoff: 100, MaxBackoff: 300}
	want := []kernel.Time{0, 100, 200, 300, 300}
	for attempt, w := range want {
		if got := p.backoffFor(attempt); got != w {
			t.Errorf("backoffFor(%d) = %d; want %d", attempt, got, w)
		}
	}
	if got := (RecoveryPolicy{}).backoffFor(5); got != 0 {
		t.Errorf("zero policy backoffFor(5) = %d; want 0", got)
	}
}

// TestPolicyDefaults: zeroed limit fields normalize to the defaults, and
// the default ladder totals the pre-policy fixed bound of 16 attempts.
func TestPolicyDefaults(t *testing.T) {
	p := DefaultRecoveryPolicy()
	if p.MaxAttempts() != 16 {
		t.Fatalf("default MaxAttempts = %d; want 16", p.MaxAttempts())
	}
	r := newRig(t, OnDemand)
	r.sys.SetRecoveryPolicy(RecoveryPolicy{})
	if got := r.sys.Policy(); got.MaxRetries != defaultMaxRetries || got.CascadeRetries != 0 {
		t.Fatalf("normalized policy = %+v; want MaxRetries defaulted, explicit zero cascade kept", got)
	}
	if err := (&Spec{}).Validate(); err == nil {
		t.Fatal("empty spec validated")
	}
	bad := lockSpec()
	bad.Service = "lock2"
	bad.RecoveryBudget = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative RecoveryBudget validated")
	}
}

// TestPolicyZeroFieldSemantics pins the defaults-vs-disabled meaning of
// each RecoveryPolicy field's zero value (see normalized's doc comment):
// MaxRetries zero/negative defaults; CascadeRetries zero disables and only
// negative defaults; Backoff zero disables (no default); MaxBackoff zero
// means "no cap"; Degrade false fails hard.
func TestPolicyZeroFieldSemantics(t *testing.T) {
	// MaxRetries: both zero and negative take the default.
	for _, v := range []int{0, -3} {
		if got := (RecoveryPolicy{MaxRetries: v}).normalized().MaxRetries; got != defaultMaxRetries {
			t.Errorf("MaxRetries=%d normalized to %d; want default %d", v, got, defaultMaxRetries)
		}
	}
	// CascadeRetries: zero stays zero (disabled), negative defaults.
	if got := (RecoveryPolicy{CascadeRetries: 0}).normalized().CascadeRetries; got != 0 {
		t.Errorf("CascadeRetries=0 normalized to %d; zero must mean disabled", got)
	}
	if got := (RecoveryPolicy{CascadeRetries: -1}).normalized().CascadeRetries; got != defaultCascadeRetries {
		t.Errorf("CascadeRetries=-1 normalized to %d; want default %d", got, defaultCascadeRetries)
	}
	// With cascading disabled the attempt budget is the retry rung alone.
	if got := (RecoveryPolicy{MaxRetries: 5, CascadeRetries: 0}).MaxAttempts(); got != 5 {
		t.Errorf("MaxAttempts with disabled cascade = %d; want 5", got)
	}
	// Backoff: zero disables — every attempt is immediate, no default kicks in.
	p := (RecoveryPolicy{Backoff: 0, MaxBackoff: 500}).normalized()
	if p.Backoff != 0 {
		t.Errorf("Backoff=0 normalized to %d; zero must mean disabled", p.Backoff)
	}
	for attempt := 0; attempt < 4; attempt++ {
		if got := p.backoffFor(attempt); got != 0 {
			t.Errorf("disabled backoffFor(%d) = %d; want 0", attempt, got)
		}
	}
	// MaxBackoff: zero means "no cap" — the doubling is unbounded.
	uncapped := RecoveryPolicy{Backoff: 100, MaxBackoff: 0}
	if got := uncapped.backoffFor(6); got != 100<<5 {
		t.Errorf("uncapped backoffFor(6) = %d; want %d", got, 100<<5)
	}
	if got := uncapped.normalized().MaxBackoff; got != 0 {
		t.Errorf("MaxBackoff=0 normalized to %d; zero must mean no cap", got)
	}
	// Degrade: the zero value fails hard (ErrRecoveryFailed, not ErrDegraded).
	hard := (RecoveryPolicy{}).exhausted("svc", "fn", 3, errors.New("cause"))
	if !errors.Is(hard, ErrRecoveryFailed) || errors.Is(hard, ErrDegraded) {
		t.Errorf("Degrade=false exhausted() = %v; want ErrRecoveryFailed only", hard)
	}
	soft := (RecoveryPolicy{Degrade: true}).exhausted("svc", "fn", 3, errors.New("cause"))
	if !errors.Is(soft, ErrDegraded) {
		t.Errorf("Degrade=true exhausted() = %v; want ErrDegraded", soft)
	}
}

// TestSpecRecoveryBudgetOverride: a per-interface RecoveryBudget overrides
// the system policy's plain-retry rung for that server's stubs only.
func TestSpecRecoveryBudgetOverride(t *testing.T) {
	r := newRig(t, OnDemand)
	r.sys.SetRecoveryPolicy(RecoveryPolicy{MaxRetries: 9, CascadeRetries: 0, Degrade: true})
	st, err := r.cl.Stub(r.lock)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	if got := st.policy().MaxRetries; got != 9 {
		t.Fatalf("policy.MaxRetries = %d; want system value 9", got)
	}
	st.entry.spec.RecoveryBudget = 2
	defer func() { st.entry.spec.RecoveryBudget = 0 }()
	if got := st.policy().MaxRetries; got != 2 {
		t.Fatalf("policy.MaxRetries = %d; want interface override 2", got)
	}
}

// TestLadderRungs pins the escalation ladder's decisions: the one table
// that both the client stub (BoundCall.Call's rungs, recoverDesc's walk
// retries) and the model checker's recovery episodes step.
func TestLadderRungs(t *testing.T) {
	base := RecoveryPolicy{MaxRetries: 3, CascadeRetries: 2, Degrade: true} // MaxAttempts 5
	noCascade := RecoveryPolicy{MaxRetries: 3, Degrade: true}               // MaxAttempts 3
	budget := base.For(&Spec{RecoveryBudget: 1})                            // MaxAttempts 3
	if budget.MaxRetries != 1 || budget.CascadeRetries != 2 || base.For(&Spec{}) != base {
		t.Fatalf("For: budget policy %+v, unbudgeted %+v", budget, base.For(&Spec{}))
	}
	rungs := []struct {
		name      string
		pol       RecoveryPolicy
		act       FaultAction
		transient bool
		attempt   int
		want      Rung
	}{
		{"reboot/first", base, ActionReboot, false, 0, RungRestart},
		{"reboot/MaxRetries-1", base, ActionReboot, false, 2, RungRestart},
		{"reboot/MaxRetries", base, ActionReboot, false, 3, RungCascade},
		{"reboot/MaxAttempts-1", base, ActionReboot, false, 4, RungCascade},
		{"reboot/MaxAttempts", base, ActionReboot, false, 5, RungExhausted},
		{"default/MaxRetries", base, ActionDefault, false, 3, RungCascade},
		{"retry/MaxRetries-1", base, ActionRetry, false, 2, RungRedo},
		{"retry/MaxRetries", base, ActionRetry, false, 3, RungRedo},
		{"retry/MaxAttempts-1", base, ActionRetry, false, 4, RungRedo},
		{"retry/MaxAttempts", base, ActionRetry, false, 5, RungExhausted},
		{"degrade/first", base, ActionDegrade, false, 0, RungExhausted},
		{"transient/reboot", base, ActionReboot, true, 3, RungRedo},
		{"transient/degrade", base, ActionDegrade, true, 0, RungRedo},
		{"transient/MaxAttempts-1", base, ActionRetry, true, 4, RungRedo},
		{"transient/MaxAttempts", base, ActionRetry, true, 5, RungExhausted},
		{"nocascade/MaxRetries-1", noCascade, ActionReboot, false, 2, RungRestart},
		{"nocascade/MaxRetries", noCascade, ActionReboot, false, 3, RungExhausted},
		{"nocascade/retry", noCascade, ActionRetry, false, 3, RungExhausted},
		{"budget/MaxRetries-1", budget, ActionReboot, false, 0, RungRestart},
		{"budget/MaxRetries", budget, ActionReboot, false, 1, RungCascade},
		{"budget/MaxAttempts-1", budget, ActionReboot, false, 2, RungCascade},
		{"budget/MaxAttempts", budget, ActionReboot, false, 3, RungExhausted},
		{"budget/retry", budget, ActionRetry, false, 2, RungRedo},
	}
	for _, tc := range rungs {
		if got := tc.pol.Rung(tc.act, tc.transient, tc.attempt); got != tc.want {
			t.Errorf("%s: Rung(%v, transient=%v, %d) = %d; want %d", tc.name, tc.act, tc.transient, tc.attempt, got, tc.want)
		}
	}
	// A walk absorbs MaxRetries mid-walk faults; the cascade rung does not
	// extend it.
	walks := []struct {
		name    string
		pol     RecoveryPolicy
		attempt int
		want    bool
	}{
		{"MaxRetries-1", base, 2, true},
		{"MaxRetries", base, 3, false},
		{"MaxAttempts-1", base, 4, false},
		{"nocascade/MaxRetries-1", noCascade, 2, true},
		{"nocascade/MaxRetries", noCascade, 3, false},
		{"budget/MaxRetries-1", budget, 0, true},
		{"budget/MaxRetries", budget, 1, false},
	}
	for _, tc := range walks {
		if got := tc.pol.RetryWalk(tc.attempt); got != tc.want {
			t.Errorf("walk %s: RetryWalk(%d) = %v; want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
}
