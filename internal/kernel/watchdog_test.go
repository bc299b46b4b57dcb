package kernel

import (
	"errors"
	"sync"
	"testing"
)

// hangOnce is an invoke hook that hangs the thread at the Nth PhaseEntry
// into comp, modeling the SWIFI EffectHang manifestation.
func hangOnce(k *Kernel, comp ComponentID, at int) InvokeHook {
	seen := 0
	fired := false
	return func(t *Thread, c ComponentID, fn string, phase InvokePhase) {
		if fired || c != comp || phase != PhaseEntry {
			return
		}
		seen++
		if seen == at {
			fired = true
			k.HangCurrent(t)
		}
	}
}

// TestWatchdogConvertsHangToComponentFault: a hang inside a component with
// the watchdog enabled unwinds the invocation with a *Fault; the client
// µ-reboots the component, retries, and the workload completes with Run
// returning nil instead of ErrHang.
func TestWatchdogConvertsHangToComponentFault(t *testing.T) {
	k := New()
	k.EnableWatchdog(WatchdogConfig{Budget: 500})
	id := k.MustRegister(newEchoFactory(nil))
	k.SetInvokeHook(hangOnce(k, id, 1))

	var got Word
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		_, err := k.Invoke(th, id, "echo", 42)
		flt, ok := AsFault(err)
		if !ok || flt.Comp != id {
			t.Errorf("Invoke err = %v; want *Fault in comp %d", err, id)
			return
		}
		if !k.Faulty(id) {
			t.Error("component not marked faulty after watchdog-caught hang")
		}
		if _, err := k.EnsureRebooted(th, id, flt.Epoch); err != nil {
			t.Errorf("EnsureRebooted: %v", err)
			return
		}
		got, err = k.Invoke(th, id, "echo", 42)
		if err != nil {
			t.Errorf("retry after µ-reboot: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run = %v; want nil (hang must not halt the machine)", err)
	}
	if got != 42 {
		t.Fatalf("retried invocation = %d; want 42", got)
	}
	st := k.WatchdogStats()
	if st.HangsCaught != 1 || st.LastComp != id {
		t.Fatalf("stats = %+v; want 1 hang caught in comp %d", st, id)
	}
	if !k.Hung() {
		t.Fatal("Hung() = false; the hang did occur")
	}
	if k.Now() < 500 {
		t.Fatalf("clock = %d; the caught hang must charge the 500µs budget", k.Now())
	}
}

// TestWatchdogBudgetPerComponent: SetInvokeBudget overrides the config
// default, and the charged virtual time reflects it.
func TestWatchdogBudgetPerComponent(t *testing.T) {
	k := New()
	k.EnableWatchdog(WatchdogConfig{Budget: 500})
	id := k.MustRegister(newEchoFactory(nil))
	if err := k.SetInvokeBudget(id, 7000); err != nil {
		t.Fatalf("SetInvokeBudget: %v", err)
	}
	if got := k.InvokeBudget(id); got != 7000 {
		t.Fatalf("InvokeBudget = %d; want 7000", got)
	}
	k.SetInvokeHook(hangOnce(k, id, 1))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if _, err := k.Invoke(th, id, "echo", 1); err == nil {
			t.Error("Invoke succeeded; want watchdog fault")
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run = %v; want nil", err)
	}
	if k.Now() < 7000 {
		t.Fatalf("clock = %d; want the per-component 7000µs budget charged", k.Now())
	}
}

// TestWatchdogUnattributableHangStillHalts: a hang in home (application)
// code has no component to blame; Run must still return ErrHang.
func TestWatchdogUnattributableHangStillHalts(t *testing.T) {
	k := New()
	k.EnableWatchdog(WatchdogConfig{})
	if _, err := k.CreateThread(nil, "looper", 10, func(th *Thread) {
		k.HangCurrent(th)
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); !errors.Is(err, ErrHang) {
		t.Fatalf("Run = %v; want ErrHang for an unattributable hang", err)
	}
	if st := k.WatchdogStats(); st.Unattributable == 0 {
		t.Fatalf("stats = %+v; want unattributable hang counted", st)
	}
}

// TestWatchdogDeadlockAttribution: a thread blocked forever inside a
// component (lost wakeup) would deadlock the machine; the watchdog blames
// the component it is blocked in, fails it, and diverts the thread with a
// *Fault so the run completes.
func TestWatchdogDeadlockAttribution(t *testing.T) {
	k := New()
	k.EnableWatchdog(WatchdogConfig{})
	id := k.MustRegister(newEchoFactory(nil))

	var blockErr error
	if _, err := k.CreateThread(nil, "waiter", 10, func(th *Thread) {
		// "block" parks inside the echo component; nobody ever wakes it.
		_, blockErr = k.Invoke(th, id, "block")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run = %v; want nil (watchdog resolves the deadlock)", err)
	}
	flt, ok := AsFault(blockErr)
	if !ok || flt.Comp != id {
		t.Fatalf("blocked invocation err = %v; want *Fault in comp %d", blockErr, id)
	}
	st := k.WatchdogStats()
	if st.DeadlocksAttributed != 1 || st.LastComp != id {
		t.Fatalf("stats = %+v; want 1 deadlock attributed to comp %d", st, id)
	}
}

// TestWatchdogInterventionCap: a divert/redo/block cycle that never makes
// progress must not loop forever — past MaxInterventions the machine halts
// with ErrHang.
func TestWatchdogInterventionCap(t *testing.T) {
	k := New()
	k.EnableWatchdog(WatchdogConfig{MaxInterventions: 3})
	id := k.MustRegister(newEchoFactory(nil))
	if _, err := k.CreateThread(nil, "stubborn", 10, func(th *Thread) {
		for {
			_, err := k.Invoke(th, id, "block")
			flt, ok := AsFault(err)
			if !ok {
				return
			}
			// A stubborn client: reboot and immediately block again.
			if _, err := k.EnsureRebooted(th, id, flt.Epoch); err != nil {
				return
			}
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); !errors.Is(err, ErrHang) {
		t.Fatalf("Run = %v; want ErrHang once the intervention budget is spent", err)
	}
	if st := k.WatchdogStats(); st.DeadlocksAttributed != 3 {
		t.Fatalf("stats = %+v; want exactly 3 interventions", st)
	}
}

// TestWatchdogDisabledKeepsLegacyHangSemantics: without EnableWatchdog a
// component-attributable hang still halts the machine (the paper's fail-stop
// model).
func TestWatchdogDisabledKeepsLegacyHangSemantics(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	k.SetInvokeHook(hangOnce(k, id, 1))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		_, _ = k.Invoke(th, id, "echo", 1)
		t.Error("invocation returned; a legacy hang must park the thread forever")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); !errors.Is(err, ErrHang) {
		t.Fatalf("Run = %v; want ErrHang with the watchdog off", err)
	}
}

// TestEnsureRebootedConcurrentClients is the TOCTOU regression test: many
// clients observing the same fault race EnsureRebooted through the inbox;
// the expected-epoch check and the reboot happen with no park between them,
// so exactly one client µ-reboots and the epoch advances exactly once.
func TestEnsureRebootedConcurrentClients(t *testing.T) {
	var boots []uint64
	k := New()
	id := k.MustRegister(newEchoFactory(&boots))
	if err := k.FailComponent(id); err != nil {
		t.Fatalf("FailComponent: %v", err)
	}

	const clients = 16
	epochs := make([]uint64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var e uint64
			var err error
			k.Do(func() { e, err = k.EnsureRebooted(nil, id, 0) })
			if err != nil {
				t.Errorf("client %d: EnsureRebooted: %v", i, err)
				return
			}
			epochs[i] = e
		}(i)
	}
	wg.Wait()

	if e, _ := k.Epoch(id); e != 1 {
		t.Fatalf("epoch = %d after concurrent EnsureRebooted; want exactly 1", e)
	}
	// Initial boot (epoch 0) plus exactly one µ-reboot (epoch 1).
	if len(boots) != 2 || boots[1] != 1 {
		t.Fatalf("boots = %v; want [0 1]: the reboot must happen exactly once", boots)
	}
	for i, e := range epochs {
		if e != 1 {
			t.Fatalf("client %d observed epoch %d; want 1", i, e)
		}
	}
	if k.Faulty(id) {
		t.Fatal("component still faulty after EnsureRebooted")
	}
}
