package core

import (
	"testing"

	"superglue/internal/kernel"
)

// TestCrossCoreHoldReplay: a hold taken through a cross-core invocation
// (client thread on core 0, lock server homed on core 1) must survive a
// server fault exactly as on a single core — recovery replays the walk and
// the outstanding hold on the fresh instance, and the client's release
// completes with ownership intact. Every stub call in this test migrates
// 0 -> 1 and back, so the recovery walk itself runs through the boot gate
// and the migration-pinned (no-preempt) path.
func TestCrossCoreHoldReplay(t *testing.T) {
	sys, err := NewSystemWithCores(OnDemand, 2)
	if err != nil {
		t.Fatalf("NewSystemWithCores: %v", err)
	}
	lock, err := sys.RegisterServer(lockSpec(), newFakeLock)
	if err != nil {
		t.Fatalf("RegisterServer(lock): %v", err)
	}
	if err := sys.PlaceServer(lock, 1); err != nil {
		t.Fatalf("PlaceServer: %v", err)
	}
	cl, err := sys.NewClient("app")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	st, err := cl.Stub(lock)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	k := sys.Kernel()
	if _, err := k.CreateThreadOn(nil, "main", 10, 0, func(th *kernel.Thread) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Errorf("take: %v", err)
			return
		}
		if err := k.FailComponent(lock); err != nil {
			t.Errorf("FailComponent: %v", err)
			return
		}
		// The release finds the failed epoch, reboots the server on its
		// home core, replays the walk plus the outstanding hold, and then
		// completes against the fresh instance.
		if _, err := st.Call(th, "lock_release", 0, id); err != nil {
			t.Errorf("release after cross-core recovery: %v", err)
			return
		}
		if m := st.Metrics(); m.HoldReplays < 1 {
			t.Errorf("hold replays = %d; want ≥ 1", m.HoldReplays)
		}
		if e, _ := k.Epoch(lock); e != 1 {
			t.Errorf("epoch = %d; want 1", e)
		}
	}); err != nil {
		t.Fatalf("CreateThreadOn: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cs := k.CoreStats(); len(cs) > 1 && cs[1].Migrations == 0 {
		t.Errorf("core 1 migrations = 0; want cross-core invocations to have migrated")
	}
}
