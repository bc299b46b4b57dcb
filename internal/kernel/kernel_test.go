package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// echoSvc is a trivial component used across kernel tests: it echoes
// arguments, can block the calling thread, and records its boot epochs.
type echoSvc struct {
	boots   *[]uint64 // shared across reboots via closure
	k       *Kernel
	self    ComponentID
	blocked []ThreadID
	calls   int
}

func newEchoFactory(boots *[]uint64) func() Service {
	return func() Service { return &echoSvc{boots: boots} }
}

func (e *echoSvc) Name() string { return "echo" }

func (e *echoSvc) Init(bc *BootContext) error {
	e.k = bc.Kernel
	e.self = bc.Self
	if e.boots != nil {
		*e.boots = append(*e.boots, bc.Epoch)
	}
	return nil
}

func (e *echoSvc) Dispatch(t *Thread, fn string, args []Word) (Word, error) {
	e.calls++
	switch fn {
	case "echo":
		if len(args) == 0 {
			return 0, nil
		}
		return args[0], nil
	case "add":
		var sum Word
		for _, a := range args {
			sum += a
		}
		return sum, nil
	case "block":
		e.blocked = append(e.blocked, t.ID())
		if err := e.k.Block(t); err != nil {
			return 0, err
		}
		return 1, nil
	case "wake":
		if err := e.k.Wakeup(t, ThreadID(args[0])); err != nil {
			return 0, err
		}
		return 0, nil
	case "nested":
		return e.k.Invoke(t, ComponentID(args[0]), "echo", args[1])
	default:
		return 0, DispatchError(e.Name(), fn)
	}
}

// runOne runs a single-thread simulation and returns Run's error.
func runOne(t *testing.T, body func(k *Kernel, th *Thread), comps ...func() Service) (*Kernel, error) {
	t.Helper()
	k := New()
	for _, c := range comps {
		k.MustRegister(c)
	}
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) { body(k, th) }); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	return k, k.Run()
}

func TestRegisterAssignsDenseIDs(t *testing.T) {
	k := New()
	id1 := k.MustRegister(newEchoFactory(nil))
	id2 := k.MustRegister(newEchoFactory(nil))
	if id1 != 1 || id2 != 2 {
		t.Fatalf("got ids %d, %d; want 1, 2", id1, id2)
	}
	if got := k.Components(); len(got) != 2 {
		t.Fatalf("Components() = %v; want 2 entries", got)
	}
	if name := k.ComponentName(id1); name != "echo" {
		t.Fatalf("ComponentName = %q; want echo", name)
	}
}

func TestRegisterNilFactory(t *testing.T) {
	k := New()
	if _, err := k.Register(nil); err == nil {
		t.Fatal("Register(nil) succeeded; want error")
	}
	if _, err := k.Register(func() Service { return nil }); err == nil {
		t.Fatal("Register(nil-returning factory) succeeded; want error")
	}
}

func TestInvokeEcho(t *testing.T) {
	var got Word
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	_, err := k.CreateThread(nil, "main", 1, func(th *Thread) {
		v, err := k.Invoke(th, id, "echo", 42)
		if err != nil {
			t.Errorf("Invoke: %v", err)
		}
		got = v
	})
	if err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Fatalf("echo returned %d; want 42", got)
	}
	if n := k.InvocationCount(); n != 1 {
		t.Fatalf("InvocationCount = %d; want 1", n)
	}
}

func TestInvokeUnknownComponent(t *testing.T) {
	_, err := runOne(t, func(k *Kernel, th *Thread) {
		if _, err := k.Invoke(th, 99, "echo"); !errors.Is(err, ErrNoSuchComponent) {
			t.Errorf("Invoke unknown comp: err = %v; want ErrNoSuchComponent", err)
		}
	}, newEchoFactory(nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	_, err := runOne(t, func(k *Kernel, th *Thread) {
		if _, err := k.Invoke(th, 1, "bogus"); !errors.Is(err, ErrNoSuchFunction) {
			t.Errorf("Invoke bogus fn: err = %v; want ErrNoSuchFunction", err)
		}
	}, newEchoFactory(nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNestedInvocationTracksStack(t *testing.T) {
	k := New()
	a := k.MustRegister(newEchoFactory(nil))
	b := k.MustRegister(newEchoFactory(nil))
	var depthAtB ComponentID
	k.SetInvokeHook(func(th *Thread, comp ComponentID, fn string, phase InvokePhase) {
		if comp == b && phase == PhaseEntry {
			depthAtB = th.Executing()
		}
	})
	_, err := k.CreateThread(nil, "main", 1, func(th *Thread) {
		v, err := k.Invoke(th, a, "nested", Word(b), 7)
		if err != nil || v != 7 {
			t.Errorf("nested invoke = (%d, %v); want (7, nil)", v, err)
		}
		if got := th.Executing(); got != 0 {
			t.Errorf("Executing after return = %d; want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depthAtB != b {
		t.Fatalf("innermost component during nested call = %d; want %d", depthAtB, b)
	}
}

func TestPriorityOrderAndFIFO(t *testing.T) {
	k := New()
	var order []string
	mk := func(name string, prio int) {
		if _, err := k.CreateThread(nil, name, prio, func(th *Thread) {
			order = append(order, name)
		}); err != nil {
			t.Fatalf("CreateThread(%s): %v", name, err)
		}
	}
	mk("low", 20)
	mk("hi-1", 5)
	mk("mid", 10)
	mk("hi-2", 5)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"hi-1", "hi-2", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v; want %v", order, want)
		}
	}
}

func TestBlockWakeupPingPong(t *testing.T) {
	k := New()
	var trace []string
	var aid, bid ThreadID
	var err error
	aid, err = k.CreateThread(nil, "a", 10, func(th *Thread) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "a")
			if err := k.Wakeup(th, bid); err != nil {
				t.Errorf("wakeup b: %v", err)
			}
			if err := k.Block(th); err != nil {
				t.Errorf("block a: %v", err)
			}
		}
		if err := k.Wakeup(th, bid); err != nil {
			t.Errorf("final wakeup: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("CreateThread a: %v", err)
	}
	bid, err = k.CreateThread(nil, "b", 10, func(th *Thread) {
		for i := 0; i < 3; i++ {
			if err := k.Block(th); err != nil {
				t.Errorf("block b: %v", err)
			}
			trace = append(trace, "b")
			if err := k.Wakeup(th, aid); err != nil {
				t.Errorf("wakeup a: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatalf("CreateThread b: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "a b a b a b"
	got := fmt.Sprint(trace)
	if got != "["+want+"]" {
		t.Fatalf("trace = %v; want alternating a/b ×3", trace)
	}
}

func TestWakeupPreemptsLowerPriority(t *testing.T) {
	k := New()
	var order []string
	var hiID ThreadID
	var err error
	hiID, err = k.CreateThread(nil, "hi", 1, func(th *Thread) {
		if err := k.Block(th); err != nil {
			t.Errorf("block hi: %v", err)
		}
		order = append(order, "hi-resumed")
	})
	if err != nil {
		t.Fatalf("CreateThread hi: %v", err)
	}
	if _, err := k.CreateThread(nil, "lo", 10, func(th *Thread) {
		order = append(order, "lo-before-wake")
		if err := k.Wakeup(th, hiID); err != nil {
			t.Errorf("wakeup: %v", err)
		}
		order = append(order, "lo-after-wake")
	}); err != nil {
		t.Fatalf("CreateThread lo: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"lo-before-wake", "hi-resumed", "lo-after-wake"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v; want %v (wakeup of higher prio must preempt)", order, want)
	}
}

func TestWakeupOfRunnableLatches(t *testing.T) {
	k := New()
	var other ThreadID
	var err error
	other, err = k.CreateThread(nil, "other", 10, func(th *Thread) {
		// The latched wakeup (sent while we were still runnable) must make
		// this Block return immediately instead of deadlocking.
		if err := k.Block(th); err != nil {
			t.Errorf("Block with latched wakeup: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "main", 5, func(th *Thread) {
		if err := k.Wakeup(th, other); err != nil {
			t.Errorf("Wakeup of runnable thread: %v; want nil (latched)", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := New()
	if _, err := k.CreateThread(nil, "sleeper", 10, func(th *Thread) {
		if err := k.Sleep(th, 250); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		if now := k.Now(); now < 250 {
			t.Errorf("Now = %d after 250µs sleep; want ≥ 250", now)
		}
		if err := k.Sleep(th, 100); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		if now := k.Now(); now < 350 {
			t.Errorf("Now = %d; want ≥ 350", now)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSleepersWakeInDeadlineOrder(t *testing.T) {
	k := New()
	var order []string
	mk := func(name string, d Time) {
		if _, err := k.CreateThread(nil, name, 10, func(th *Thread) {
			if err := k.Sleep(th, d); err != nil {
				t.Errorf("Sleep(%s): %v", name, err)
			}
			order = append(order, name)
		}); err != nil {
			t.Fatalf("CreateThread: %v", err)
		}
	}
	mk("late", 300)
	mk("early", 100)
	mk("mid", 200)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"early", "mid", "late"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v; want %v", order, want)
		}
	}
}

func TestHangDetection(t *testing.T) {
	k := New()
	if _, err := k.CreateThread(nil, "stuck", 10, func(th *Thread) {
		_ = k.Block(th) // nobody will wake us
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); !errors.Is(err, ErrHang) {
		t.Fatalf("Run = %v; want ErrHang", err)
	}
	if !k.Halted() {
		t.Fatal("kernel not halted after hang")
	}
}

func TestPanicInThreadHaltsWithError(t *testing.T) {
	k := New()
	if _, err := k.CreateThread(nil, "bad", 10, func(th *Thread) {
		panic("boom")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	err := k.Run()
	if err == nil || !k.Halted() {
		t.Fatalf("Run = %v; want panic-derived error and halt", err)
	}
}

func TestFailComponentDeliversFault(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if err := k.FailComponent(id); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if !k.Faulty(id) {
			t.Error("Faulty = false after FailComponent")
		}
		_, err := k.Invoke(th, id, "echo", 1)
		f, ok := AsFault(err)
		if !ok {
			t.Errorf("Invoke of failed comp: err = %v; want *Fault", err)
			return
		}
		if f.Comp != id || f.Epoch != 0 {
			t.Errorf("fault = %+v; want comp %d epoch 0", f, id)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRebootBumpsEpochAndReinits(t *testing.T) {
	var boots []uint64
	k := New()
	id := k.MustRegister(newEchoFactory(&boots))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if err := k.FailComponent(id); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		epoch, err := k.Reboot(th, id)
		if err != nil || epoch != 1 {
			t.Errorf("Reboot = (%d, %v); want (1, nil)", epoch, err)
		}
		if k.Faulty(id) {
			t.Error("component still faulty after reboot")
		}
		// The new instance must serve invocations again.
		if v, err := k.Invoke(th, id, "echo", 9); err != nil || v != 9 {
			t.Errorf("post-reboot invoke = (%d, %v); want (9, nil)", v, err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(boots) != 2 || boots[0] != 0 || boots[1] != 1 {
		t.Fatalf("boot epochs = %v; want [0 1]", boots)
	}
}

func TestEnsureRebootedIsOncePerEpoch(t *testing.T) {
	var boots []uint64
	k := New()
	id := k.MustRegister(newEchoFactory(&boots))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if err := k.FailComponent(id); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		e1, err := k.EnsureRebooted(th, id, 0)
		if err != nil || e1 != 1 {
			t.Errorf("first EnsureRebooted = (%d, %v); want (1, nil)", e1, err)
		}
		e2, err := k.EnsureRebooted(th, id, 0) // stale epoch: no-op
		if err != nil || e2 != 1 {
			t.Errorf("second EnsureRebooted = (%d, %v); want (1, nil)", e2, err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(boots) != 2 {
		t.Fatalf("component booted %d times; want 2 (initial + one reboot)", len(boots))
	}
}

func TestRebootDivertsBlockedThreadsWithFault(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	var blockedErr error
	if _, err := k.CreateThread(nil, "victim", 5, func(th *Thread) {
		_, blockedErr = k.Invoke(th, id, "block")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "rebooter", 10, func(th *Thread) {
		// victim (higher prio) runs first and blocks inside the component.
		if err := k.FailComponent(id); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := k.Reboot(th, id); err != nil {
			t.Errorf("Reboot: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f, ok := AsFault(blockedErr)
	if !ok {
		t.Fatalf("blocked invocation returned %v; want *Fault (T0 eager divert)", blockedErr)
	}
	if f.Comp != id || f.Epoch != 0 {
		t.Fatalf("diverted fault = %+v; want comp %d epoch 0", f, id)
	}
}

func TestRebootHookRuns(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	var hookComp ComponentID
	var hookEpoch uint64
	k.AddRebootHook(func(th *Thread, comp ComponentID, epoch uint64) {
		hookComp, hookEpoch = comp, epoch
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if _, err := k.Reboot(th, id); err != nil {
			t.Errorf("Reboot: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hookComp != id || hookEpoch != 1 {
		t.Fatalf("reboot hook saw (%d, %d); want (%d, 1)", hookComp, hookEpoch, id)
	}
}

func TestCrashSystem(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		k.CrashSystem(th, id, "wild pointer dereference")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	err := k.Run()
	var crash *SystemCrash
	if !errors.As(err, &crash) {
		t.Fatalf("Run = %v; want *SystemCrash", err)
	}
	if crash.Comp != id || crash.Reason == "" {
		t.Fatalf("crash = %+v; want comp %d with reason", crash, id)
	}
	if k.Crash() == nil {
		t.Fatal("Crash() = nil after system crash")
	}
}

func TestHangCurrentHaltsSystem(t *testing.T) {
	k := New()
	if _, err := k.CreateThread(nil, "looper", 10, func(th *Thread) {
		k.HangCurrent(th)
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); !errors.Is(err, ErrHang) {
		t.Fatalf("Run = %v; want ErrHang", err)
	}
	if !k.Hung() {
		t.Fatal("Hung() = false after HangCurrent")
	}
}

func TestReflectThreads(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	if _, err := k.CreateThread(nil, "blocker", 5, func(th *Thread) {
		if _, err := k.Invoke(th, id, "block"); err != nil {
			// diverted at halt; fine
			return
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "observer", 10, func(th *Thread) {
		infos := k.ReflectThreads()
		if len(infos) != 2 {
			t.Errorf("ReflectThreads returned %d entries; want 2", len(infos))
			return
		}
		var blocker ThreadInfo
		for _, info := range infos {
			if info.Name == "blocker" {
				blocker = info
			}
		}
		if blocker.State != ThreadBlocked || blocker.BlockedIn != id {
			t.Errorf("blocker info = %+v; want blocked in comp %d", blocker, id)
		}
		if blocker.Prio != 5 {
			t.Errorf("blocker prio = %d; want 5", blocker.Prio)
		}
		if err := k.Wakeup(th, blocker.ID); err != nil {
			t.Errorf("Wakeup: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestYieldRoundRobinsEqualPriority(t *testing.T) {
	k := New()
	var order []string
	mk := func(name string, rounds int) {
		if _, err := k.CreateThread(nil, name, 10, func(th *Thread) {
			for i := 0; i < rounds; i++ {
				order = append(order, name)
				if err := k.Yield(th); err != nil {
					t.Errorf("Yield: %v", err)
				}
			}
		}); err != nil {
			t.Fatalf("CreateThread: %v", err)
		}
	}
	mk("x", 2)
	mk("y", 2)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"x", "y", "x", "y"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v; want %v", order, want)
		}
	}
}

func TestInvokeHookPhases(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	var phases []InvokePhase
	k.SetInvokeHook(func(th *Thread, comp ComponentID, fn string, phase InvokePhase) {
		phases = append(phases, phase)
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if _, err := k.Invoke(th, id, "echo", 5); err != nil {
			t.Errorf("Invoke: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(phases) != 2 || phases[0] != PhaseEntry || phases[1] != PhaseExit {
		t.Fatalf("hook phases = %v; want [entry exit]", phases)
	}
}

func TestReturnValueFlowsThroughEAX(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	k.SetInvokeHook(func(th *Thread, comp ComponentID, fn string, phase InvokePhase) {
		if phase == PhaseExit {
			th.Regs().Val[RegEAX] ^= 1 << 3 // flip one bit of the return value
		}
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		v, err := k.Invoke(th, id, "echo", 16)
		if err != nil {
			t.Errorf("Invoke: %v", err)
		}
		if v != 24 { // 16 ^ 8
			t.Errorf("corrupted return = %d; want 24", v)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestHookActivatedFaultUnwindsInvocation(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	k.SetInvokeHook(func(th *Thread, comp ComponentID, fn string, phase InvokePhase) {
		if phase == PhaseEntry {
			if err := k.FailComponent(comp); err != nil {
				t.Errorf("FailComponent: %v", err)
			}
		}
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		_, err := k.Invoke(th, id, "echo", 1)
		if _, ok := AsFault(err); !ok {
			t.Errorf("Invoke = %v; want *Fault after hook-activated failure", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCallerIdentity(t *testing.T) {
	k := New()
	a := k.MustRegister(newEchoFactory(nil))
	b := k.MustRegister(newEchoFactory(nil))
	var callerAtB ComponentID
	k.SetInvokeHook(func(th *Thread, comp ComponentID, fn string, phase InvokePhase) {
		if comp == b && phase == PhaseEntry {
			callerAtB = k.Caller(th)
		}
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		if _, err := k.Invoke(th, a, "nested", Word(b), 1); err != nil {
			t.Errorf("Invoke: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if callerAtB != a {
		t.Fatalf("Caller at b = %d; want %d", callerAtB, a)
	}
}

func TestRunTwiceFails(t *testing.T) {
	k := New()
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run succeeded; want error")
	}
}

func TestRunWithNoThreads(t *testing.T) {
	k := New()
	if err := k.Run(); !errors.Is(err, ErrNoThreads) {
		t.Fatalf("Run = %v; want ErrNoThreads", err)
	}
}

func TestOperationsAfterHaltReturnErrHalted(t *testing.T) {
	k := New()
	id := k.MustRegister(newEchoFactory(nil))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := k.CreateThread(nil, "late", 10, func(th *Thread) {}); !errors.Is(err, ErrHalted) {
		t.Fatalf("CreateThread after halt = %v; want ErrHalted", err)
	}
	if _, err := k.Reboot(nil, id); !errors.Is(err, ErrHalted) {
		t.Fatalf("Reboot after halt = %v; want ErrHalted", err)
	}
}

func TestChildThreadCreationAndPreemption(t *testing.T) {
	k := New()
	var order []string
	if _, err := k.CreateThread(nil, "parent", 10, func(th *Thread) {
		order = append(order, "parent-start")
		if _, err := k.CreateThread(th, "child-hi", 1, func(ct *Thread) {
			order = append(order, "child")
		}); err != nil {
			t.Errorf("child CreateThread: %v", err)
		}
		order = append(order, "parent-end")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"parent-start", "child", "parent-end"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v; want %v (higher-prio child preempts creator)", order, want)
		}
	}
}

func TestMaterializeRegFileInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := DefaultRegProfile()
	var f RegFile
	for i := 0; i < 1000; i++ {
		f.Materialize(p, PhaseEntry, rng)
		if f.Class[RegESP] != ClassStackPtr || f.Class[RegEBP] != ClassFramePtr {
			t.Fatalf("ESP/EBP classes = %v/%v; want stack/frame ptr", f.Class[RegESP], f.Class[RegEBP])
		}
		if f.Val[RegESP] < StackBase {
			t.Fatalf("ESP %#x below stack base", f.Val[RegESP])
		}
		if f.Val[RegEBP] < f.Val[RegESP] {
			t.Fatalf("EBP %#x below ESP %#x", f.Val[RegEBP], f.Val[RegESP])
		}
		for r := RegEAX; r < RegESP; r++ {
			switch f.Class[r] {
			case ClassDead, ClassData, ClassPtr, ClassLoop:
			default:
				t.Fatalf("GPR %v has class %v at entry", r, f.Class[r])
			}
		}
	}
	f.Materialize(p, PhaseExit, rng)
	if f.Class[RegEAX] != ClassRetVal {
		t.Fatalf("EAX class at exit = %v; want ClassRetVal", f.Class[RegEAX])
	}
}

// TestSchedulingDeterminism runs the same multi-thread scenario repeatedly
// and requires an identical execution trace each time: the foundation for
// reproducible fault-injection campaigns.
func TestSchedulingDeterminism(t *testing.T) {
	run := func() []string {
		k := New()
		id := k.MustRegister(newEchoFactory(nil))
		var trace []string
		var tids [3]ThreadID
		for i := 0; i < 3; i++ {
			i := i
			name := fmt.Sprintf("t%d", i)
			tid, err := k.CreateThread(nil, name, 10-i, func(th *Thread) {
				for j := 0; j < 3; j++ {
					trace = append(trace, name)
					if v, err := k.Invoke(th, id, "echo", Word(i)); err != nil || v != Word(i) {
						t.Errorf("echo: (%d, %v)", v, err)
					}
					if err := k.Yield(th); err != nil {
						t.Errorf("yield: %v", err)
					}
				}
			})
			if err != nil {
				t.Fatalf("CreateThread: %v", err)
			}
			tids[i] = tid
		}
		_ = tids
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("nondeterministic trace:\n run 0: %v\n run %d: %v", first, i+1, got)
		}
	}
}

// TestPriorityInvariantProperty uses testing/quick to check that for random
// thread sets, threads always complete in priority order when no thread
// blocks.
func TestPriorityInvariantProperty(t *testing.T) {
	prop := func(prios []uint8) bool {
		if len(prios) == 0 || len(prios) > 12 {
			return true
		}
		k := New()
		var order []int
		for i, p := range prios {
			i, p := i, int(p%32)
			if _, err := k.CreateThread(nil, fmt.Sprintf("t%d", i), p, func(th *Thread) {
				order = append(order, p)
			}); err != nil {
				return false
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
