package kernel

import (
	"fmt"

	"superglue/internal/obs"
)

// Invoke performs a synchronous component invocation on behalf of thread t:
// the thread migrates into component dst, executes interface function fn
// there, and returns with a single word result — the COMPOSITE invocation
// primitive.
//
// If dst is in the failed state, Invoke immediately returns a *Fault
// carrying the failed epoch; the caller's stub is expected to run recovery
// and retry. If an installed invocation hook activates a fault while the
// thread executes inside dst (the SWIFI case), the invocation also unwinds
// with a *Fault, modeling fail-stop detection.
//
// The PhaseExit hook observes the return window: the return value is staged
// in the modeled EAX register across the hook, so a register flip there
// reaches the client, modeling fault propagation through return values.
//
// The fault-free path takes no lock and makes no atomic write: it runs
// inside the machine, so everything but the component's (epoch, faulty)
// word is plain memory. See DESIGN.md "Invocation fast path".
func (k *Kernel) Invoke(t *Thread, dst ComponentID, fn string, args ...Word) (Word, error) {
	return k.InvokePost(t, dst, fn, 0, nil, args...)
}

// InvokePost is Invoke for a client stub, with the function's trace name
// bound and a post-completion callback.
//
// id is obs.FnOf(fn), bound once by the caller, so a traced invocation
// records it without hashing fn; 0 means unbound, and fn is then
// interned only if a tracer is installed (Invoke passes 0).
//
// After a successful dispatch (and the PhaseExit hook), post runs with
// the final return value while the thread is still on the server's core
// — before the return migration of a cross-core invocation. Client stubs
// pass their descriptor tracking here so that "operation completed" and
// "operation tracked" are atomic under the scheduler: on a single-core
// machine no park separates them, and without this a thread parked on
// the return migration leaves a completed-but-untracked operation that
// concurrent recovery replay cannot see. post is not called when the
// invocation unwinds with an error; it may be nil.
func (k *Kernel) InvokePost(t *Thread, dst ComponentID, fn string, id obs.FnID, post func(Word), args ...Word) (Word, error) {
	if k.Halted() {
		return 0, ErrHalted
	}
	if t != k.current {
		return 0, ErrNotCurrent
	}
	c := k.comp(dst)
	if c == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchComponent, dst)
	}
	// The epoch snapshot is taken BEFORE any park this call can perform
	// (boot gate, cross-core migration): the caller's stub translated its
	// arguments against this epoch, and every later fault check compares
	// against it, so a µ-reboot that slips into one of the park windows is
	// detected as a *Fault and the stub redoes with fresh translations.
	epoch, faulty := c.snapshot()
	if faulty {
		kind, sev := c.faultMeta()
		return 0, &Fault{Comp: dst, Epoch: epoch, Kind: kind, Severity: sev}
	}
	// Multi-core machines gate on a µ-reboot in progress: between a fresh
	// instance's install and the completion of its Init upcall, the
	// component must not be dispatched (its state is not constructed yet),
	// so invokers park until the boot gate opens. The rebooting thread
	// itself passes through — the reboot hooks replay held invocations into
	// the fresh instance. Single-core machines never open the window (the
	// booter cannot park mid-boot).
	if k.multicore {
		for c.booting && c.bootThread != t && !k.Halted() {
			k.waitBoot(t, c)
		}
		if k.Halted() {
			return 0, ErrHalted
		}
	}
	svc := c.svc
	hook := k.hook
	if k.tracer != nil {
		k.traceInvoke(t, dst, fn, id, epoch)
	}

	t.invStack = append(t.invStack, dst)
	t.fnStack = append(t.fnStack, fn)

	// Cross-core invocation: when the server component is homed on another
	// core, the thread migrates there before the hook and the dispatch, and
	// back to the caller's core when the invocation unwinds (fault paths
	// included — the stub's redo then re-migrates). Single-core machines
	// skip even the affinity load. A thread inside a non-preemptible
	// section never migrates (as with preemption disabled on a real
	// kernel): a migration parks the thread and hands the core to other
	// work, which would let another thread observe the critical section's
	// intermediate state — recovery walks depend on this to stay atomic.
	prevCore := int32(-1)
	savedXC := t.crossCoreInv
	if k.multicore && t.noPreempt == 0 {
		if home := c.core; home >= 0 && home != t.core {
			prevCore = t.core
			k.migrate(t, home, true)
		}
	}
	t.crossCoreInv = prevCore >= 0

	defer k.leave(t, dst, prevCore, savedXC)

	if hook != nil {
		hook(t, dst, fn, PhaseEntry)
		// A hang caught by the watchdog unwinds like a fail-stop fault.
		if f := t.takeWatchdogFault(); f != nil {
			return 0, f
		}
	}
	// A transient fault armed on the thread (message loss, via hook or
	// direct injection): the request never reaches the server — unwind
	// without dispatching. The component is NOT failed; the stub
	// retransmits.
	if f := t.takeInjectedFault(); f != nil {
		return 0, f
	}
	// Fail-stop: a fault activated at entry aborts the invocation before
	// the operation starts.
	if f, failed := c.faultIf(epoch); failed {
		return 0, f
	}
	// Duplicate delivery armed on the thread (message duplication): the
	// server executes the operation twice — the duplicate runs first and
	// its result is discarded; the "real" delivery below is the one whose
	// result the client sees.
	if t.takeInjectDup() {
		if _, derr := svc.Dispatch(t, fn, args); derr != nil {
			return 0, derr
		}
		if f := t.takeWatchdogFault(); f != nil {
			return 0, f
		}
		if f, failed := c.faultIf(epoch); failed {
			return 0, f
		}
	}

	ret, err := svc.Dispatch(t, fn, args)
	if err != nil {
		return ret, err
	}

	if hook != nil {
		// Stage the return value in EAX across the return-window hook. A
		// fault activated here fails the component for *subsequent*
		// invocations, but this operation already completed and its result
		// is delivered (possibly with a corrupted return value, the
		// propagation channel).
		t.regs.Val[RegEAX] = uint32(ret)
		hook(t, dst, fn, PhaseExit)
		// A hang in the return path means the result never reached the
		// client: when the watchdog catches it, the invocation unwinds
		// with the fault (and the rebuilt server replays the operation on
		// the redo) instead of delivering a result that was never returned.
		if f := t.takeWatchdogFault(); f != nil {
			return 0, f
		}
		ret = Word(int32(t.regs.Val[RegEAX]))
	}
	if post != nil {
		post(ret)
	}
	// The retried invocation completed: drop any unconsumed redo credit so
	// it cannot surface later as a spurious wakeup.
	if t.redoCredit && t.creditFn == fn {
		t.redoCredit = false
		t.creditFn = ""
		t.wakePending = false
	}
	return ret, nil
}

// traceInvoke records an invocation entry, interning fn if the caller
// did not bind it (id 0). It is kept out of InvokePost, whose untraced
// path is the hot one.
func (k *Kernel) traceInvoke(t *Thread, dst ComponentID, fn string, id obs.FnID, epoch uint64) {
	if id == 0 {
		id = obs.FnOf(fn)
	}
	k.tracer.RecordInvokeFn(int32(dst), int32(t.id), id, int64(k.clock), epoch)
}

// leave unwinds an invocation of dst on t, on return and on every error or
// halt path: it pops the invocation stack, migrates a cross-core
// invocation back to the caller's core (prevCore, -1 when it did not
// migrate), counts the invocation, and takes the preemption deferred to
// the boundary of the outermost invocation.
func (k *Kernel) leave(t *Thread, dst ComponentID, prevCore int32, savedXC bool) {
	if n := len(t.invStack); n > 0 && t.invStack[n-1] == dst {
		t.invStack = t.invStack[:n-1]
		t.fnStack = t.fnStack[:n-1]
	}
	t.crossCoreInv = savedXC
	if prevCore >= 0 {
		// Return migration to the caller's core (skipped when the machine
		// halted: migrate would just unwind the thread).
		k.migrate(t, prevCore, false)
	}
	k.invCount++
	if len(t.invStack) == 0 && len(k.cores[t.core].ready) > 0 && t == k.current && !k.Halted() {
		k.preempt(t)
	}
}

// Upcall invokes fn in component dst on behalf of t, exactly like Invoke but
// in the reverse direction: recovery infrastructure calling *into* a client
// component (mechanism U0) rather than a client calling a server. Upcalls
// are counted separately (UpcallCount) so recovery-cost accounting never
// conflates the two directions.
func (k *Kernel) Upcall(t *Thread, dst ComponentID, fn string, args ...Word) (Word, error) {
	k.upcallCount++
	if tr := k.tracer; tr != nil {
		var tid int32
		if t != nil {
			tid = int32(t.id)
		}
		var gen uint64
		if c := k.comp(dst); c != nil {
			gen = c.curEpoch()
		}
		tr.RecordUpcall(int32(dst), tid, obs.FnOf(fn), int64(k.clock), gen)
	}
	return k.Invoke(t, dst, fn, args...)
}

// faultIf returns the pending fault for c if its failed flag was raised (or
// it was already rebooted past epoch) while the caller executed inside.
func (c *component) faultIf(epoch uint64) (*Fault, bool) {
	cur, faulty := c.snapshot()
	if faulty {
		kind, sev := c.faultMeta()
		return &Fault{Comp: c.id, Epoch: cur, Kind: kind, Severity: sev}, true
	}
	if cur != epoch {
		return &Fault{Comp: c.id, Epoch: epoch}, true
	}
	return nil, false
}

// Executing reports the innermost component of thread t's invocation stack;
// it exists for services that need their caller's identity (COMPOSITE passes
// the client's component ID, or "spdid", on invocations).
func (k *Kernel) Executing(t *Thread) ComponentID { return t.topOfStack() }

// Caller returns the component that invoked the current one on thread t: the
// second-innermost entry of the invocation stack, or zero for application
// ("home") code. It reads the stack directly and must only be called from
// the thread itself (services resolving their invoker) or while the thread
// is quiescent.
func (k *Kernel) Caller(t *Thread) ComponentID {
	if n := len(t.invStack); n > 1 {
		return t.invStack[n-2]
	}
	return 0
}

// DispatchError annotates an unknown-function dispatch with context; service
// Dispatch implementations use it for their default case.
func DispatchError(svc string, fn string) error {
	return fmt.Errorf("%w: %s.%s", ErrNoSuchFunction, svc, fn)
}
