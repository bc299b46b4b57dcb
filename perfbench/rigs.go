package main

import (
	"fmt"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// serviceRig is one service behind its typed SuperGlue client on a fresh
// system: a one-time prep and a repeatable probe, the §V-B micro-workload's
// calls. The recovery ledger times the probe fault-free and as the first
// call after the service fails.
type serviceRig struct {
	sys   *core.System
	comp  kernel.ComponentID
	stubs []*core.ClientStub
	prep  func(t *kernel.Thread) error
	probe func(t *kernel.Thread) error
}

// walkSteps sums the recovery-walk invocations of the rig's stubs.
func (r *serviceRig) walkSteps() uint64 {
	var n uint64
	for _, s := range r.stubs {
		n += s.Metrics().WalkSteps
	}
	return n
}

func newServiceRig(service string) (*serviceRig, error) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		return nil, err
	}
	reg := map[string]func(*core.System) (kernel.ComponentID, error){
		"lock": lock.Register, "event": event.Register, "sched": sched.Register,
		"timer": timer.Register, "mm": mm.Register, "ramfs": ramfs.Register,
	}[service]
	if reg == nil {
		return nil, fmt.Errorf("unknown service %q", service)
	}
	r := &serviceRig{sys: sys}
	if r.comp, err = reg(sys); err != nil {
		return nil, err
	}
	cl, err := sys.NewClient("ledger-app")
	if err != nil {
		return nil, err
	}
	switch service {
	case "lock":
		c, err := lock.NewClient(cl, r.comp)
		if err != nil {
			return nil, err
		}
		var id kernel.Word
		r.stubs = []*core.ClientStub{c.Stub()}
		r.prep = func(t *kernel.Thread) (err error) { id, err = c.Alloc(t); return err }
		r.probe = func(t *kernel.Thread) error {
			if err := c.Take(t, id); err != nil {
				return err
			}
			return c.Release(t, id)
		}
	case "event":
		c, err := event.NewClient(cl, r.comp)
		if err != nil {
			return nil, err
		}
		other, err := sys.NewClient("ledger-other")
		if err != nil {
			return nil, err
		}
		oc, err := event.NewClient(other, r.comp)
		if err != nil {
			return nil, err
		}
		var id kernel.Word
		r.stubs = []*core.ClientStub{c.Stub(), oc.Stub()}
		r.prep = func(t *kernel.Thread) (err error) { id, err = c.Split(t, 0, 0); return err }
		// A non-creator triggers by global ID, so recovery takes the full
		// G0 path: storage resolve, EINVAL, creator upcall, replay.
		r.probe = func(t *kernel.Thread) error {
			if _, err := oc.Trigger(t, id); err != nil {
				return err
			}
			_, err := c.Wait(t, id)
			return err
		}
	case "sched":
		c, err := sched.NewClient(cl, r.comp)
		if err != nil {
			return nil, err
		}
		r.stubs = []*core.ClientStub{c.Stub()}
		r.prep = func(t *kernel.Thread) error { _, err := c.Setup(t, t.Prio()); return err }
		r.probe = func(t *kernel.Thread) error {
			if err := c.Wakeup(t, t.ID()); err != nil {
				return err
			}
			return c.Blk(t)
		}
	case "timer":
		c, err := timer.NewClient(cl, r.comp)
		if err != nil {
			return nil, err
		}
		var id kernel.Word
		r.stubs = []*core.ClientStub{c.Stub()}
		r.prep = func(t *kernel.Thread) (err error) { id, err = c.Alloc(t, 1); return err }
		r.probe = func(t *kernel.Thread) error { _, err := c.Wait(t, id); return err }
	case "mm":
		c, err := mm.NewClient(cl, r.comp)
		if err != nil {
			return nil, err
		}
		const root, alias = kernel.Word(0x10_0000), kernel.Word(0x20_0000)
		r.stubs = []*core.ClientStub{c.Stub()}
		r.prep = func(t *kernel.Thread) error { _, err := c.GetPage(t, root); return err }
		r.probe = func(t *kernel.Thread) error {
			if _, err := c.AliasPage(t, root, cl.ID(), alias); err != nil {
				return err
			}
			return c.ReleasePage(t, alias)
		}
	case "ramfs":
		c, err := ramfs.NewClient(cl, r.comp)
		if err != nil {
			return nil, err
		}
		var fd kernel.Word
		r.stubs = []*core.ClientStub{c.Stub()}
		r.prep = func(t *kernel.Thread) error {
			var err error
			if fd, err = c.Open(t, "/ledger.dat"); err != nil {
				return err
			}
			_, err = c.Write(t, fd, []byte("ledger payload"))
			return err
		}
		r.probe = func(t *kernel.Thread) error {
			if _, err := c.Lseek(t, fd, 0); err != nil {
				return err
			}
			_, err := c.Read(t, fd, 8)
			return err
		}
	}
	return r, nil
}
