// Package gen holds the sgc-generated typed clients (one package per
// service) and, in this directory, the tests that drive them through
// fault injection: the generated methods reach the one recovery engine,
// core.ClientStub, and descriptors survive a µ-reboot through them.
package gen

import (
	"bytes"
	"testing"

	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/gen/genevent"
	"superglue/internal/gen/genlock"
	"superglue/internal/gen/genmm"
	"superglue/internal/gen/genramfs"
	"superglue/internal/gen/gensched"
	"superglue/internal/gen/gentimer"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

type rig struct {
	sys *core.System
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return &rig{sys: sys}
}

func (r *rig) newClient(t *testing.T, name string) *core.Client {
	t.Helper()
	cl, err := r.sys.NewClient(name)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return cl
}

func (r *rig) run(t *testing.T, body func(th *kernel.Thread)) {
	t.Helper()
	if _, err := r.sys.Kernel().CreateThread(nil, "main", 10, body); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := r.sys.Kernel().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGeneratedLockStubRecovery(t *testing.T) {
	r := newRig(t)
	comp, err := lock.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	host := r.newClient(t, "gen-app")
	st, err := genlock.NewClient(host, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	r.run(t, func(th *kernel.Thread) {
		self := kernel.Word(host.ID())
		tid := kernel.Word(th.ID())
		id, err := st.LockAlloc(th, self)
		if err != nil {
			t.Errorf("LockAlloc: %v", err)
			return
		}
		if _, err := st.LockTake(th, self, id, tid); err != nil {
			t.Errorf("LockTake: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Release after the fault: the engine recovers the
		// descriptor, re-acquires on our behalf (hold replay), then
		// releases.
		if _, err := st.LockRelease(th, self, id, tid); err != nil {
			t.Errorf("LockRelease after fault: %v", err)
		}
		if _, err := st.LockFree(th, id); err != nil {
			t.Errorf("LockFree: %v", err)
		}
		if st.Stub().Tracked() != 0 {
			t.Errorf("Tracked = %d; want 0", st.Stub().Tracked())
		}
		// The walk replays lock_alloc; the hold replay re-takes the lock.
		if m := st.Stub().Metrics(); m.Recoveries == 0 || m.WalkSteps == 0 || m.HoldReplays == 0 {
			t.Errorf("metrics = %+v; want recovery with alloc+take replay", st.Stub().Metrics())
		}
	})
}

func TestGeneratedEventStubG0(t *testing.T) {
	r := newRig(t)
	comp, err := event.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	creatorHost := r.newClient(t, "gen-creator")
	creator, err := genevent.NewClient(creatorHost, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	otherHost := r.newClient(t, "gen-other")
	other, err := genevent.NewClient(otherHost, comp)
	if err != nil {
		t.Fatalf("NewClient(other): %v", err)
	}
	r.run(t, func(th *kernel.Thread) {
		id, err := creator.EvtSplit(th, kernel.Word(creatorHost.ID()), 0, 0)
		if err != nil {
			t.Errorf("EvtSplit: %v", err)
			return
		}
		if _, err := other.EvtTrigger(th, kernel.Word(otherHost.ID()), id); err != nil {
			t.Errorf("EvtTrigger pre-fault: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := r.sys.Kernel().Reboot(th, comp); err != nil {
			t.Errorf("Reboot: %v", err)
		}
		// Stale global ID from the non-creator: the server-side stub must
		// route a G0 upcall into the creator's stub.
		if _, err := other.EvtTrigger(th, kernel.Word(otherHost.ID()), id); err != nil {
			t.Errorf("EvtTrigger post-fault (G0): %v", err)
		}
		if _, err := creator.EvtWait(th, kernel.Word(creatorHost.ID()), id); err != nil {
			t.Errorf("EvtWait: %v", err)
		}
		if _, err := creator.EvtFree(th, kernel.Word(creatorHost.ID()), id); err != nil {
			t.Errorf("EvtFree: %v", err)
		}
	})
}

func TestGeneratedEventParentChain(t *testing.T) {
	r := newRig(t)
	comp, err := event.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	host := r.newClient(t, "gen-app")
	st, err := genevent.NewClient(host, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	r.run(t, func(th *kernel.Thread) {
		self := kernel.Word(host.ID())
		root, err := st.EvtSplit(th, self, 0, 0)
		if err != nil {
			t.Errorf("split root: %v", err)
			return
		}
		child, err := st.EvtSplit(th, self, root, 1)
		if err != nil {
			t.Errorf("split child: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Using the child recovers the parent first (D1).
		if _, err := st.EvtTrigger(th, self, child); err != nil {
			t.Errorf("trigger child after fault: %v", err)
		}
		if st.Stub().Metrics().WalkSteps < 2 {
			t.Errorf("walk steps = %d; want ≥ 2 (parent then child)", st.Stub().Metrics().WalkSteps)
		}
	})
}

func TestGeneratedSchedStub(t *testing.T) {
	r := newRig(t)
	comp, err := sched.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	host := r.newClient(t, "gen-app")
	st, err := gensched.NewClient(host, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	k := r.sys.Kernel()
	woke := false
	var blocked kernel.ThreadID
	if _, err := k.CreateThread(nil, "blocker", 9, func(th *kernel.Thread) {
		blocked = th.ID()
		if _, err := st.SchedSetup(th, kernel.Word(host.ID()), kernel.Word(th.ID()), 9); err != nil {
			t.Errorf("SchedSetup: %v", err)
			return
		}
		if _, err := st.SchedBlk(th, kernel.Word(host.ID()), kernel.Word(th.ID())); err != nil {
			t.Errorf("SchedBlk across fault: %v", err)
			return
		}
		woke = true
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "waker", 10, func(th *kernel.Thread) {
		if _, err := st.SchedSetup(th, kernel.Word(host.ID()), kernel.Word(th.ID()), 10); err != nil {
			t.Errorf("SchedSetup: %v", err)
			return
		}
		if err := k.FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := st.SchedWakeup(th, kernel.Word(host.ID()), kernel.Word(blocked)); err != nil {
			t.Errorf("SchedWakeup after fault: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woke {
		t.Fatal("blocked thread never woke through generated client recovery")
	}
}

func TestGeneratedTimerStub(t *testing.T) {
	r := newRig(t)
	comp, err := timer.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	host := r.newClient(t, "gen-app")
	st, err := gentimer.NewClient(host, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	r.run(t, func(th *kernel.Thread) {
		id, err := st.TimerAlloc(th, kernel.Word(host.ID()), 300)
		if err != nil {
			t.Errorf("TimerAlloc: %v", err)
			return
		}
		if _, err := st.TimerPeriodicWait(th, kernel.Word(host.ID()), id); err != nil {
			t.Errorf("TimerPeriodicWait: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := st.TimerPeriodicWait(th, kernel.Word(host.ID()), id); err != nil {
			t.Errorf("TimerPeriodicWait after fault: %v", err)
		}
		if _, err := st.TimerFree(th, kernel.Word(host.ID()), id); err != nil {
			t.Errorf("TimerFree: %v", err)
		}
	})
}

func TestGeneratedMMStubSubtree(t *testing.T) {
	r := newRig(t)
	comp, err := mm.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	host := r.newClient(t, "gen-app")
	peer := r.newClient(t, "gen-peer")
	st, err := genmm.NewClient(host, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	r.run(t, func(th *kernel.Thread) {
		self := kernel.Word(host.ID())
		peerID := kernel.Word(peer.ID())
		if _, err := st.MmanGetPage(th, self, 0x1000, 0); err != nil {
			t.Errorf("MmanGetPage: %v", err)
			return
		}
		if _, err := st.MmanAliasPage(th, self, 0x1000, peerID, 0x2000); err != nil {
			t.Errorf("MmanAliasPage: %v", err)
			return
		}
		if _, err := st.MmanAliasPage(th, peerID, 0x2000, self, 0x3000); err != nil {
			t.Errorf("MmanAliasPage chain: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Release the root: D0 rebuilds the subtree before revocation.
		if _, err := st.MmanReleasePage(th, self, 0x1000); err != nil {
			t.Errorf("MmanReleasePage after fault: %v", err)
			return
		}
		if st.Stub().Tracked() != 0 {
			t.Errorf("Tracked = %d; want 0", st.Stub().Tracked())
		}
		if st.Stub().Metrics().WalkSteps < 3 {
			t.Errorf("walk steps = %d; want ≥ 3", st.Stub().Metrics().WalkSteps)
		}
	})
}

func TestGeneratedRamFSStub(t *testing.T) {
	r := newRig(t)
	comp, err := ramfs.Register(r.sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	host := r.newClient(t, "gen-app")
	st, err := genramfs.NewClient(host, comp)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	cm := r.sys.Cbufs()
	r.run(t, func(th *kernel.Thread) {
		self := kernel.Word(host.ID())
		// Path buffer (retained).
		path := "/gen.dat"
		pbuf, err := cm.Alloc(cbuf.ComponentID(host.ID()), len(path))
		if err != nil {
			t.Errorf("Alloc path buf: %v", err)
			return
		}
		if err := cm.Write(pbuf, cbuf.ComponentID(host.ID()), 0, []byte(path)); err != nil {
			t.Errorf("Write path buf: %v", err)
			return
		}
		if err := cm.Map(pbuf, cbuf.ComponentID(comp)); err != nil {
			t.Errorf("Map path buf: %v", err)
			return
		}
		fd, err := st.FsOpen(th, self, kernel.Word(pbuf), kernel.Word(len(path)))
		if err != nil {
			t.Errorf("FsOpen: %v", err)
			return
		}
		// Write "abcdef" through a retained data buffer.
		data := []byte("abcdef")
		dbuf, err := cm.Alloc(cbuf.ComponentID(host.ID()), len(data))
		if err != nil {
			t.Errorf("Alloc data buf: %v", err)
			return
		}
		if err := cm.Write(dbuf, cbuf.ComponentID(host.ID()), 0, data); err != nil {
			t.Errorf("Write data buf: %v", err)
			return
		}
		if err := cm.Map(dbuf, cbuf.ComponentID(comp)); err != nil {
			t.Errorf("Map data buf: %v", err)
			return
		}
		if n, err := st.FsWrite(th, self, fd, kernel.Word(dbuf), kernel.Word(len(data))); err != nil || n != 6 {
			t.Errorf("FsWrite = (%d, %v); want (6, nil)", n, err)
			return
		}
		if _, err := st.FsLseek(th, fd, 2); err != nil {
			t.Errorf("FsLseek: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Read across the fault: content restored from storage (G1),
		// offset restored by the open-and-lseek walk.
		rbuf, err := cm.Alloc(cbuf.ComponentID(host.ID()), 3)
		if err != nil {
			t.Errorf("Alloc read buf: %v", err)
			return
		}
		if err := cm.Delegate(rbuf, cbuf.ComponentID(host.ID()), cbuf.ComponentID(comp)); err != nil {
			t.Errorf("Delegate: %v", err)
			return
		}
		n, err := st.FsRead(th, self, fd, kernel.Word(rbuf), 3)
		if err != nil {
			t.Errorf("FsRead after fault: %v", err)
			return
		}
		got, err := cm.Read(rbuf, cbuf.ComponentID(host.ID()), 0, int(n))
		if err != nil || !bytes.Equal(got, []byte("cde")) {
			t.Errorf("read back = (%q, %v); want cde", got, err)
		}
		if _, err := st.FsClose(th, self, fd); err != nil {
			t.Errorf("FsClose: %v", err)
		}
	})
}
