package kernel

import (
	"errors"
	"fmt"

	"superglue/internal/fault"
)

// Fault is the inter-component exception delivered when an invocation
// targets (or a blocked thread is diverted out of) a failed component. It is
// the simulation analogue of the hardware exception that COMPOSITE vectors
// to the booter. Client stubs catch it, route it by Kind through the
// recovery dispatcher (see core), ensure the component is µ-rebooted when
// the kind calls for it, run interface-driven recovery, and retry the
// invocation.
type Fault struct {
	// Comp is the failed component.
	Comp ComponentID
	// Epoch is the component's epoch at the time of the fault. Recovery
	// code compares it with the current epoch to decide whether the
	// component still needs a µ-reboot or has already been rebooted by
	// another client.
	Epoch uint64
	// Kind classifies the fault (fault.KindUnknown for legacy detection
	// sites, handled like a register flip).
	Kind fault.Kind
	// Severity grades the fault (fault.SevUnknown when ungraded).
	Severity fault.Severity
	// Transient marks faults that left the component's state intact (a
	// dropped message): recovery is a plain redo, no µ-reboot, and the
	// component is not in the failed state.
	Transient bool
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Kind == fault.KindUnknown {
		return fmt.Sprintf("kernel: fault in component %d (epoch %d)", f.Comp, f.Epoch)
	}
	return fmt.Sprintf("kernel: %s fault in component %d (epoch %d)", f.Kind, f.Comp, f.Epoch)
}

// Event converts the fault to the taxonomy's event record.
func (f *Fault) Event() fault.Event {
	ev := fault.New(f.Kind, int32(f.Comp), "")
	if f.Severity != fault.SevUnknown {
		ev.Severity = f.Severity
	}
	return ev
}

// AsFault extracts a *Fault from an error chain. A bare *Fault, the form
// invocations deliver, is matched by a type assertion that does not
// allocate; any other error goes through errors.As.
func AsFault(err error) (*Fault, bool) {
	if f, ok := err.(*Fault); ok {
		return f, true
	}
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// FailComponent marks a component as failed (fail-stop). Every subsequent
// invocation of it returns a *Fault until it is µ-rebooted, and threads
// blocked inside it are diverted when the reboot happens. FailComponent
// models the instant at which an activated transient fault corrupts the
// component and is detected; the fault is left unclassified
// (fault.KindUnknown) — detection sites that know what happened use
// FailComponentAs.
func (k *Kernel) FailComponent(id ComponentID) error {
	return k.FailComponentAs(id, fault.KindUnknown, fault.SevUnknown)
}

// FailComponentAs marks a component as failed with a typed classification:
// subsequent invocations deliver *Fault values carrying the kind and
// severity, and the trace (obs) records the classified detection event.
// A zero severity takes the kind's default grade.
func (k *Kernel) FailComponentAs(id ComponentID, kind fault.Kind, sev fault.Severity) error {
	if sev == fault.SevUnknown && kind != fault.KindUnknown {
		sev = fault.DefaultSeverity(kind)
	}
	c, err := k.lookup(id)
	if err != nil {
		return err
	}
	c.markFaultyAs(kind, sev)
	if tr := k.tracer; tr != nil {
		epoch, _ := c.snapshot()
		var tid int32
		if k.current != nil {
			tid = int32(k.current.id)
		}
		tr.RecordFault(int32(id), tid, "", int64(k.clock), epoch, kind, sev)
	}
	return nil
}

// FaultNow fails component id with a typed classification and returns the
// *Fault for the detection site to propagate: a server that detects its own
// corruption (e.g. a checksum mismatch while restoring from storage) fails
// itself and unwinds the current invocation with the fault, entering the
// client stub's recovery path instead of leaking an unclassified error.
func (k *Kernel) FaultNow(id ComponentID, kind fault.Kind, sev fault.Severity) error {
	epoch := uint64(0)
	if c := k.comp(id); c != nil {
		epoch = c.curEpoch()
	}
	if err := k.FailComponentAs(id, kind, sev); err != nil {
		return err
	}
	if sev == fault.SevUnknown && kind != fault.KindUnknown {
		sev = fault.DefaultSeverity(kind)
	}
	return &Fault{Comp: id, Epoch: epoch, Kind: kind, Severity: sev}
}

// Faulty reports whether a component is currently in the failed state. It
// reads the atomic state word, so it is safe from any goroutine once
// registration is done.
func (k *Kernel) Faulty(id ComponentID) bool {
	c := k.comp(id)
	if c == nil {
		return false
	}
	_, faulty := c.snapshot()
	return faulty
}

// Reboot µ-reboots a component: it discards the failed instance, constructs
// a fresh one from the component's clean image (its factory), bumps the
// epoch, re-initializes the new instance, wakes every thread that was
// blocked inside the failed instance with a pending *Fault (the eager T0
// wakeup that diverts them back to their clients), and finally runs the
// registered reboot hooks. It returns the component's new epoch.
//
// Reboot is idempotent per fault: use EnsureRebooted from recovery code so
// that only the first client observing a fault performs the reboot.
func (k *Kernel) Reboot(t *Thread, id ComponentID) (uint64, error) {
	return k.reboot(t, id, 0, false)
}

// reboot implements Reboot and EnsureRebooted. When mustMatch is set, the
// expected-epoch check and the epoch bump happen with no park between them:
// two clients observing the same fault can both call EnsureRebooted, and
// exactly one performs the µ-reboot — the other observes the advanced
// epoch. (A check-then-Reboot split would let both pass the check and
// reboot twice.)
func (k *Kernel) reboot(t *Thread, id ComponentID, expectEpoch uint64, mustMatch bool) (uint64, error) {
	if k.Halted() {
		return 0, ErrHalted
	}
	c, err := k.lookup(id)
	if err != nil {
		return 0, err
	}
	// Another thread's µ-reboot of this component is mid-boot (instance
	// installed, Init not yet complete): wait for its gate to clear before
	// reading the epoch, so the mustMatch check below observes the advanced
	// epoch instead of concluding a second reboot is needed.
	for c.booting && c.bootThread != t && t != nil && t == k.current && !k.Halted() {
		k.waitBoot(t, c)
	}
	if k.Halted() {
		return 0, ErrHalted
	}
	oldEpoch, _ := c.snapshot()
	if mustMatch && oldEpoch != expectEpoch {
		return oldEpoch, nil // someone already rebooted it
	}
	// The classification of the fault that killed this instance, carried
	// into the pending faults delivered to eagerly woken threads.
	kind, sev := c.faultMeta()
	// Span start for the µ-reboot trace event: virtual time and
	// completed-invocation count before the fresh instance is installed.
	vt0 := k.clock
	steps0 := k.invCount
	newEpoch := oldEpoch + 1
	svc := c.factory()
	c.install(svc, newEpoch)

	// Eager (T0) wakeup: divert threads blocked inside the failed instance
	// back to their clients with a pending fault carrying the old epoch.
	// Threads that were already woken but not yet scheduled are diverted
	// too — their execution state inside the failed instance is gone —
	// with their consumed wakeup re-latched so the redo of a blocking call
	// does not lose it (exactly-once wakeup, recovered from kernel state).
	for _, bt := range k.threads {
		switch {
		case (bt.state == ThreadBlocked || bt.state == ThreadSleeping) && bt.blockedIn == id:
			bt.pendingFault = &Fault{Comp: id, Epoch: oldEpoch, Kind: kind, Severity: sev}
			bt.state = ThreadRunnable
			k.enqueue(bt)
		case bt.state == ThreadRunnable && !bt.migPending && bt.topOfStack() == id:
			// Woken but not yet scheduled: its execution state inside the
			// failed instance is gone, so divert it — re-latching the
			// consumed wakeup as a redo credit (Block case only) so the
			// retried call does not lose it. Threads parked for a migration
			// are runnable with the component on their stack too, but they
			// need no divert: an inbound cross-core invocation re-checks the
			// component's (epoch, faulty) word after the migration and
			// unwinds on its own, and a return migration carries an
			// operation the old instance already completed. A pending fault
			// armed here would never be consumed by the migration park and
			// would surface later from an unrelated component.
			bt.pendingFault = &Fault{Comp: id, Epoch: oldEpoch, Kind: kind, Severity: sev}
			if bt.lastParkWasBlock {
				bt.wakePending = true
				bt.redoCredit = true
				if n := len(bt.fnStack); n > 0 {
					bt.creditFn = bt.fnStack[n-1]
				}
			}
		}
	}
	// Close the boot gate: until Init and the reboot hooks complete, no
	// thread but the rebooting one may dispatch into the fresh instance
	// (see the component struct). Opened again after the hooks run.
	c.booting = true
	c.bootThread = t

	// A component with a home core re-initializes there: the rebooting
	// thread migrates over for the Init upcall and the eager-recovery hooks
	// (which replay held invocations into the fresh instance) and returns
	// to its own core afterwards.
	backTo := int32(-1)
	if k.multicore && t != nil {
		if home := c.core; home >= 0 && home != t.core {
			backTo = t.core
			k.migrate(t, home, false)
		}
	}

	// Re-initialization upcall into the fresh instance (step 4 of the
	// paper's recovery sequence).
	if err := svc.Init(&BootContext{Kernel: k, Self: id, Epoch: newEpoch, Thread: t}); err != nil {
		k.openBootGate(c)
		return 0, fmt.Errorf("kernel: re-init of component %d after µ-reboot: %w", id, err)
	}
	for _, h := range k.rebootHooks {
		h(t, id, newEpoch)
	}
	k.openBootGate(c)
	if backTo >= 0 {
		k.migrate(t, backTo, false)
	}
	if tr := k.tracer; tr != nil {
		var tid int32
		if t != nil {
			tid = int32(t.id)
		}
		tr.RecordReboot(int32(id), tid, int64(k.clock), newEpoch, int64(k.clock-vt0), k.invCount-steps0)
	}

	// The eagerly woken threads may outrank the rebooting thread.
	if t != nil && t == k.current && !k.Halted() {
		k.preempt(t)
	}
	return newEpoch, nil
}

// openBootGate clears a component's µ-reboot gate and releases every thread
// that parked on it while the fresh instance initialized.
func (k *Kernel) openBootGate(c *component) {
	c.booting = false
	c.bootThread = nil
	if !k.Halted() {
		for _, w := range c.bootWaiters {
			w.state = ThreadRunnable
			k.enqueue(w)
		}
	}
	c.bootWaiters = nil
}

// waitBoot parks t until component c's µ-reboot gate clears (its fresh
// instance finished its Init upcall and the reboot hooks ran). The park is
// not a service block: blockedIn stays zero, so neither the T0 divert scan
// nor the watchdog mistakes the waiter for a thread blocked inside a
// component.
func (k *Kernel) waitBoot(t *Thread, c *component) {
	c.bootWaiters = append(c.bootWaiters, t)
	t.state = ThreadBlocked
	t.lastParkWasBlock = false
	k.switchFrom(t)
}

// EnsureRebooted µ-reboots component id only if its epoch still equals the
// epoch observed in a fault, so concurrent clients reboot a failed component
// exactly once. The epoch check and the reboot happen with no park between
// them (see reboot). It returns the component's (possibly advanced)
// epoch.
func (k *Kernel) EnsureRebooted(t *Thread, id ComponentID, faultEpoch uint64) (uint64, error) {
	return k.reboot(t, id, faultEpoch, true)
}

// InjectTransientFault arms a one-shot transient fault on thread t: the
// in-flight invocation of dst unwinds with a *Fault of the given kind
// without failing the component — the invocation is simply lost (message
// loss). Call from a PhaseEntry invocation hook; Invoke consumes the armed
// fault when the hook returns.
func (k *Kernel) InjectTransientFault(t *Thread, dst ComponentID, kind fault.Kind) {
	epoch := uint64(0)
	if c := k.comp(dst); c != nil {
		epoch = c.curEpoch()
	}
	sev := fault.DefaultSeverity(kind)
	t.injectedFault = &Fault{Comp: dst, Epoch: epoch, Kind: kind, Severity: sev, Transient: true}
	if tr := k.tracer; tr != nil {
		tr.RecordFault(int32(dst), int32(t.id), "inject:transient", int64(k.clock), epoch, kind, sev)
	}
}

// DuplicateNext arms one-shot duplicate delivery on thread t: the in-flight
// invocation is dispatched twice (at-least-once delivery; the duplicate runs
// first and its result is discarded). Call from a PhaseEntry invocation
// hook. The duplication is recorded as a message-dup fault event.
func (k *Kernel) DuplicateNext(t *Thread, dst ComponentID) {
	t.injectDup = true
	if tr := k.tracer; tr != nil {
		epoch := uint64(0)
		if c := k.comp(dst); c != nil {
			epoch = c.curEpoch()
		}
		tr.RecordFault(int32(dst), int32(t.id), "inject:duplicate", int64(k.clock), epoch,
			fault.KindMessageDup, fault.DefaultSeverity(fault.KindMessageDup))
	}
}

// takeInjectedFault consumes (and clears) the transient fault armed on the
// thread by InjectTransientFault, if any.
func (t *Thread) takeInjectedFault() *Fault {
	f := t.injectedFault
	t.injectedFault = nil
	return f
}

// takeInjectDup consumes (and clears) the duplicate-delivery flag armed by
// DuplicateNext.
func (t *Thread) takeInjectDup() bool {
	d := t.injectDup
	t.injectDup = false
	return d
}
