package sched

import (
	"testing"

	"superglue/internal/core"
	"superglue/internal/kernel"
)

func newSys(t *testing.T) (*core.System, kernel.ComponentID, *Client) {
	t.Helper()
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	comp, err := Register(sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	cl, err := sys.NewClient("app")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c, err := NewClient(cl, comp)
	if err != nil {
		t.Fatalf("NewClient(sched): %v", err)
	}
	return sys, comp, c
}

func TestSpecMechanisms(t *testing.T) {
	spec, err := Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	for _, m := range []core.Mechanism{core.MechR0, core.MechT0, core.MechT1} {
		if !spec.HasMechanism(m) {
			t.Errorf("mechanism %v missing", m)
		}
	}
}

func TestSetupBlkWakeupRemove(t *testing.T) {
	sys, comp, c := newSys(t)
	k := sys.Kernel()
	var aID kernel.ThreadID
	resumed := false
	var err error
	aID, err = k.CreateThread(nil, "a", 9, func(th *kernel.Thread) {
		if _, err := c.Setup(th, 9); err != nil {
			return
		}
		if err := c.Blk(th); err != nil {
			return
		}
		resumed = true
	})
	if err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "b", 10, func(th *kernel.Thread) {
		if _, err := c.Setup(th, 10); err != nil {
			t.Errorf("Setup: %v", err)
			return
		}
		if err := c.Wakeup(th, aID); err != nil {
			t.Errorf("Wakeup: %v", err)
		}
		if err := c.Remove(th, th.ID()); err != nil {
			t.Errorf("Remove: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !resumed {
		t.Fatal("blocked thread never resumed")
	}
	svc, _ := k.Service(comp)
	type innerer interface{ Inner() kernel.Service }
	srv := svc.(innerer).Inner().(*Server)
	if srv.Registered() != 1 {
		t.Fatalf("registered = %d; want 1 (one removed)", srv.Registered())
	}
}

func TestSetupUnknownThreadRejected(t *testing.T) {
	sys, _, c := newSys(t)
	k := sys.Kernel()
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		if _, err := c.Stub().Call(th, FnSetup, 1, 999, 10); err == nil {
			t.Error("setup of unknown kernel thread accepted")
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBlkByOtherThreadRejected(t *testing.T) {
	sys, _, c := newSys(t)
	k := sys.Kernel()
	var other kernel.ThreadID
	var err error
	other, err = k.CreateThread(nil, "other", 9, func(th *kernel.Thread) {
		if _, err := c.Setup(th, 9); err != nil {
			t.Errorf("Setup: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		if _, err := c.Stub().Call(th, FnBlk, 1, kernel.Word(other)); err == nil {
			t.Error("sched_blk of another thread accepted")
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRebootReflectsKernelThreads: after a µ-reboot the scheduler rebuilds
// its table from kernel thread objects.
func TestRebootReflectsKernelThreads(t *testing.T) {
	sys, comp, c := newSys(t)
	k := sys.Kernel()
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		if _, err := c.Setup(th, 10); err != nil {
			t.Errorf("Setup: %v", err)
			return
		}
		if err := k.FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := k.Reboot(th, comp); err != nil {
			t.Errorf("Reboot: %v", err)
		}
		svc, _ := k.Service(comp)
		type innerer interface{ Inner() kernel.Service }
		srv := svc.(innerer).Inner().(*Server)
		if srv.Registered() == 0 {
			t.Error("reflection did not rebuild the thread table")
		}
		// The descriptor is still usable through the stub (on-demand
		// recovery replays sched_setup).
		if err := c.Wakeup(th, th.ID()); err != nil {
			t.Errorf("Wakeup after reboot: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWorkloadCleanRun(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	w := NewWorkload(5)
	if _, err := w.Build(sys); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sys.Kernel().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestWorkloadSurvivesInjectedFault(t *testing.T) {
	for nth := 2; nth <= 14; nth += 3 {
		sys, err := core.NewSystem(core.OnDemand)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		w := NewWorkload(5)
		comp, err := w.Build(sys)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		count := 0
		sys.Kernel().SetInvokeHook(func(th *kernel.Thread, c kernel.ComponentID, fn string, phase kernel.InvokePhase) {
			if c == comp && phase == kernel.PhaseEntry {
				count++
				if count == nth {
					if err := sys.Kernel().FailComponent(comp); err != nil {
						t.Errorf("FailComponent: %v", err)
					}
				}
			}
		})
		if err := sys.Kernel().Run(); err != nil {
			t.Fatalf("Run (fault at %d): %v", nth, err)
		}
		if err := w.Check(); err != nil {
			t.Fatalf("Check (fault at %d): %v", nth, err)
		}
	}
}
