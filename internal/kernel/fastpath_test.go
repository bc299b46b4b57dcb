package kernel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFaultBetweenSnapshotAndDispatch is the regression test for the
// lock-free entry snapshot: a fault raised after Invoke read the component's
// (epoch, faulty) word but before the service dispatched must still unwind
// the invocation as a *Fault. The PhaseEntry hook runs exactly in that
// window, so failing the component there exercises the race
// deterministically.
func TestFaultBetweenSnapshotAndDispatch(t *testing.T) {
	k := New()
	comp := k.MustRegister(newEchoFactory(nil))
	armed := false
	k.SetInvokeHook(func(_ *Thread, dst ComponentID, _ string, phase InvokePhase) {
		if armed && phase == PhaseEntry {
			armed = false
			if err := k.FailComponent(dst); err != nil {
				t.Errorf("FailComponent: %v", err)
			}
		}
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		armed = true
		_, err := k.Invoke(th, comp, "echo", 7)
		f, ok := AsFault(err)
		if !ok {
			t.Errorf("fault between snapshot and dispatch: got %v, want *Fault", err)
			return
		}
		if f.Comp != comp || f.Epoch != 0 {
			t.Errorf("fault = %+v, want comp %d epoch 0", f, comp)
		}
		// After the µ-reboot the fresh snapshot must serve invocations again.
		if _, err := k.Reboot(th, comp); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		if got, err := k.Invoke(th, comp, "echo", 9); err != nil || got != 9 {
			t.Errorf("post-reboot echo = %d, %v; want 9, nil", got, err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFaultInReturnWindow pins the exit-side semantics: a fault activated in
// the PhaseExit window does not revoke the completed operation's result, but
// the very next invocation observes the failed state from the snapshot.
func TestFaultInReturnWindow(t *testing.T) {
	k := New()
	comp := k.MustRegister(newEchoFactory(nil))
	armed := false
	k.SetInvokeHook(func(_ *Thread, dst ComponentID, _ string, phase InvokePhase) {
		if armed && phase == PhaseExit {
			armed = false
			if err := k.FailComponent(dst); err != nil {
				t.Errorf("FailComponent: %v", err)
			}
		}
	})
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		armed = true
		if got, err := k.Invoke(th, comp, "echo", 5); err != nil || got != 5 {
			t.Errorf("echo with exit-window fault = %d, %v; want 5, nil", got, err)
			return
		}
		if _, err := k.Invoke(th, comp, "echo", 6); err == nil {
			t.Error("invocation after exit-window fault succeeded, want *Fault")
		} else if _, ok := AsFault(err); !ok {
			t.Errorf("invocation after exit-window fault: got %v, want *Fault", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestUpcallCountedDistinctly checks the Upcall accounting split: upcalls
// contribute to both InvocationCount and UpcallCount, plain invocations only
// to the former.
func TestUpcallCountedDistinctly(t *testing.T) {
	k := New()
	comp := k.MustRegister(newEchoFactory(nil))
	if _, err := k.CreateThread(nil, "main", 10, func(th *Thread) {
		for i := 0; i < 3; i++ {
			if _, err := k.Invoke(th, comp, "echo", 1); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := k.Upcall(th, comp, "echo", 1); err != nil {
				t.Errorf("Upcall: %v", err)
			}
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := k.InvocationCount(); got != 5 {
		t.Errorf("InvocationCount = %d, want 5 (plain + upcalls)", got)
	}
	if got := k.UpcallCount(); got != 2 {
		t.Errorf("UpcallCount = %d, want 2", got)
	}
}

// TestConcurrentReadersDuringFaults is the -race stress test for the
// inbox: one simulated thread drives a SWIFI-style fail/reboot/retry loop
// while an external injector goroutine fails the component through Do and
// monitor goroutines read every machine-owned value through Do (Epoch,
// Faulty, Executing, ReflectThreads, counters) and the atomic ones
// directly (Epoch, Faulty, Halted). The driver yields every few iterations,
// giving the inbox a scheduling decision to drain at. The race detector
// observing the interleavings is the main assertion; each monitor also
// checks that the invocation count and the epoch never go backwards.
func TestConcurrentReadersDuringFaults(t *testing.T) {
	const iters = 4000

	k := New()
	comp := k.MustRegister(newEchoFactory(nil))
	var stop atomic.Bool
	var th atomic.Pointer[Thread]

	if _, err := k.CreateThread(nil, "driver", 10, func(tt *Thread) {
		th.Store(tt)
		for i := 0; i < iters; i++ {
			if i%8 == 0 {
				if err := k.Yield(tt); err != nil {
					t.Errorf("iter %d: Yield: %v", i, err)
					return
				}
			}
			_, err := k.Invoke(tt, comp, "echo", Word(i))
			if err == nil {
				continue
			}
			f, ok := AsFault(err)
			if !ok {
				t.Errorf("iter %d: non-fault error %v", i, err)
				return
			}
			if _, rerr := k.EnsureRebooted(tt, comp, f.Epoch); rerr != nil {
				t.Errorf("iter %d: EnsureRebooted: %v", i, rerr)
				return
			}
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}

	var wg sync.WaitGroup
	// External fault injector: FailComponent from outside, through the
	// inbox.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var err error
			k.Do(func() { err = k.FailComponent(comp) })
			if err != nil {
				t.Errorf("FailComponent: %v", err)
				return
			}
		}
	}()
	// Monitors.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink, lastInv, lastEpoch uint64
			for !stop.Load() {
				var inv, epoch uint64
				k.Do(func() {
					inv = k.InvocationCount()
					sink += k.UpcallCount()
					epoch, _ = k.Epoch(comp)
					if k.Faulty(comp) {
						sink++
					}
					if tt := th.Load(); tt != nil {
						sink += uint64(k.Executing(tt))
						sink += uint64(tt.Executing())
					}
					for _, info := range k.ReflectThreads() {
						sink += uint64(info.Executing)
					}
					if k.ComponentName(comp) == "" {
						sink++
					}
				})
				if inv < lastInv || epoch < lastEpoch {
					t.Errorf("monitor went backwards: invocations %d after %d, epoch %d after %d",
						inv, lastInv, epoch, lastEpoch)
					return
				}
				lastInv, lastEpoch = inv, epoch
				// The atomic words are readable without the inbox.
				if e, err := k.Epoch(comp); err == nil {
					sink += e
				}
				if k.Faulty(comp) || k.Halted() {
					sink++
				}
			}
			_ = sink
		}()
	}

	err := k.Run()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := k.InvocationCount(); got == 0 {
		t.Error("InvocationCount = 0, want > 0")
	}
	// The injector may re-fail the component after the driver's last
	// retry, so no faulty/epoch end-state is asserted — only that the read
	// still resolves.
	if _, err := k.Epoch(comp); err != nil {
		t.Errorf("Epoch: %v", err)
	}
}

// TestReadySeqSkipsPreemptionCheck pins the fast-path scheduling contract:
// an invocation during which a wakeup enqueued a higher-priority thread
// still preempts at the invocation boundary (the deferred preemption), and
// the woken thread runs before the driver's next invocation.
func TestReadySeqSkipsPreemptionCheck(t *testing.T) {
	k := New()
	comp := k.MustRegister(newEchoFactory(nil))
	var order []string
	var hiID ThreadID

	if _, err := k.CreateThread(nil, "lo", 20, func(lo *Thread) {
		// Invocation that wakes the blocked high-priority thread mid-call:
		// the preemption must be deferred to the boundary, then taken.
		if _, err := k.Invoke(lo, comp, "wake", Word(hiID)); err != nil {
			t.Errorf("wake: %v", err)
			return
		}
		order = append(order, "lo-after-wake")
	}); err != nil {
		t.Fatalf("CreateThread lo: %v", err)
	}
	var err error
	hiID, err = k.CreateThread(nil, "hi", 5, func(hi *Thread) {
		if _, err := k.Invoke(hi, comp, "block"); err != nil {
			t.Errorf("block: %v", err)
			return
		}
		order = append(order, "hi-woken")
	})
	if err != nil {
		t.Fatalf("CreateThread hi: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"hi-woken", "lo-after-wake"}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] {
		t.Errorf("order = %v, want %v", order, want)
	}
}
