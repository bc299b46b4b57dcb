package kernel

import (
	"errors"

	"superglue/internal/fault"
)

// ErrHang reports a scheduling deadlock: live threads exist, but none is
// runnable or sleeping. The paper classifies the corresponding campaign
// outcome as "not recovered (other reason)" — a latent fault such as an
// infinite wait that only a monitoring infrastructure (C'MON) would detect.
// With the watchdog enabled (see watchdog.go), ErrHang is returned only for
// hangs attributable to no component; component-attributable hangs are
// converted into component faults and recovered.
var ErrHang = errors.New("kernel: system hang: live threads but none runnable")

// ErrNoThreads reports that Run was called on a kernel with no threads.
var ErrNoThreads = errors.New("kernel: no threads to run")

// Run executes the simulation until every thread has exited, the system
// hangs, or an unrecoverable crash halts the machine. It returns nil on
// clean completion, ErrHang on deadlock, or the *SystemCrash / panic error
// otherwise. Run must be called exactly once.
//
// While Run executes, the machine's state belongs to it: thread bodies,
// services, hooks and the idle handler run on Run's goroutine (every thread
// body on a coroutine that Run drives) and use the state directly. Other
// goroutines reach the machine only through the inbox — Post, Do and
// ExternalWakeup — which Run drains at every scheduling decision. A thread
// body must not call runtime.Goexit (t.FailNow in a test): it would end the
// goroutine that called Run, and Run would never return.
func (k *Kernel) Run() error {
	if !k.inbox.start() {
		return errors.New("kernel: Run called twice")
	}
	defer k.inbox.stop()
	if len(k.threads) == 0 {
		k.halt(nil)
		return ErrNoThreads
	}
	first := k.pickReady()
	if first == nil {
		k.halt(ErrHang)
		return ErrHang
	}
	k.dispatch(first)
	k.drive()
	return k.haltErr
}

// enqueue appends t to its core's ready queue, stamping its FIFO sequence
// (the sequence counter is global, so arrival order is totally ordered
// across cores).
func (k *Kernel) enqueue(t *Thread) {
	k.seq++
	t.seq = k.seq
	c := &k.cores[t.core]
	c.ready = append(c.ready, t)
}

// IdleHandler is invoked on Run's goroutine when live threads exist but
// none is runnable or sleeping: the machine's idle loop. The handler may
// wait for external input (e.g., a network request), make a thread runnable
// with ExternalWakeup, and return true to resume scheduling; returning false
// lets the machine halt (a hang if threads remain). Without a handler, that
// condition is a deadlock. The inbox is drained whenever the handler
// returns.
type IdleHandler func() bool

// SetIdleHandler installs the idle loop (nil clears it).
func (k *Kernel) SetIdleHandler(h IdleHandler) { k.idle = h }

// pickReady removes and returns the next thread under the virtual-time
// merge (see takeBest). It first runs whatever the outside world posted to
// the inbox, so every scheduling decision, including the one after the idle
// handler returns, sees it. If no core has a runnable thread but threads
// are sleeping, it advances the owning core's clock to the earliest wake
// time — earliest by (fire time, core, thread ID), where the fire time is
// max(core clock, wake time) — wakes that core's due sleepers, and retries;
// if nothing is sleeping either, the idle handler (when installed) may
// produce new work. It returns nil when nothing can become runnable.
//
// On success it also refreshes the global clock mirror to the winning
// core's clock and settles any pending migration-latency measurement on the
// chosen thread, so every dispatch path shares that bookkeeping.
func (k *Kernel) pickReady() *Thread {
	for {
		if k.inbox.pending.Load() {
			k.inbox.drain()
		}
		if best := k.takeBest(); best != nil {
			c := &k.cores[best.core]
			c.dispatches++
			// Multi-core machines charge one virtual tick per dispatch
			// quantum: a core that keeps dispatching advances past its
			// siblings, so the merge cannot starve runnable work on a
			// higher-clock core (e.g. a thread parked there by a cross-core
			// migration). Single-core machines keep the legacy clock, which
			// advances only on sleeps — the pre-multicore behavior.
			if k.multicore {
				c.clock++
			}
			if best.migPending {
				best.migPending = false
				if tr := k.tracer; tr != nil {
					tr.RecordMigration(int32(best.migFrom), int32(best.core), int32(best.id),
						int64(c.clock), int64(c.clock-best.migStart), best.migInvoke)
				}
			}
			k.clock = c.clock
			return best
		}
		// Nothing ready on any core: advance time to the earliest sleeper.
		var earliest *Thread
		var fireAt Time
		for _, t := range k.threads {
			if t.state != ThreadSleeping {
				continue
			}
			fire := t.wakeAt
			if c := k.cores[t.core].clock; c > fire {
				fire = c
			}
			if earliest == nil || fire < fireAt || (fire == fireAt && t.core < earliest.core) {
				earliest, fireAt = t, fire
			}
		}
		if earliest == nil {
			if k.runIdle() {
				continue
			}
			// No idle work either: before declaring the machine dead, let
			// the watchdog try to attribute the wedge to a component and
			// divert its blocked threads (recovery instead of ErrHang).
			if k.watchdogDivert() {
				continue
			}
			return nil
		}
		c := &k.cores[earliest.core]
		if fireAt > c.clock {
			c.clock = fireAt
		}
		for _, t := range k.threads {
			if t.state == ThreadSleeping && t.core == earliest.core && t.wakeAt <= c.clock {
				t.state = ThreadRunnable
				k.enqueue(t)
			}
		}
	}
}

// runIdle invokes the idle handler and reports whether scheduling should
// retry.
func (k *Kernel) runIdle() bool {
	h := k.idle
	if h == nil || k.Halted() {
		return false
	}
	live := 0
	for _, t := range k.threads {
		if t.state != ThreadExited {
			live++
		}
	}
	if live == 0 {
		return false
	}
	return h() && !k.Halted()
}

// takeBest removes and returns the next thread under the merge rule:
// among cores whose ready queue holds at least one runnable thread, the core
// with the smallest (virtual clock, core number) wins; within that core,
// selection is the highest-priority thread (lowest prio value; earliest
// global arrival sequence breaks ties). Returns nil when no core has
// runnable work. With one core this is exactly the original single-core
// selection.
func (k *Kernel) takeBest() *Thread {
	bestCore, bestIdx := -1, -1
	for ci := range k.cores {
		c := &k.cores[ci]
		idx := -1
		for i, t := range c.ready {
			if t.state != ThreadRunnable {
				continue // stale entry (e.g. woken then re-queued); skip
			}
			if idx == -1 || t.prio < c.ready[idx].prio || (t.prio == c.ready[idx].prio && t.seq < c.ready[idx].seq) {
				idx = i
			}
		}
		if idx == -1 {
			c.ready = c.ready[:0] // every entry stale; drop them
			continue
		}
		if bestCore == -1 || c.clock < k.cores[bestCore].clock {
			bestCore, bestIdx = ci, idx
		}
	}
	if bestCore == -1 {
		return nil
	}
	c := &k.cores[bestCore]
	best := c.ready[bestIdx]
	c.ready = append(c.ready[:bestIdx], c.ready[bestIdx+1:]...)
	return best
}

// dispatch makes next the running thread and records it for the Run
// driver, which resumes it once the current thread yields.
func (k *Kernel) dispatch(next *Thread) {
	next.state = ThreadRunning
	k.current = next
	k.next = next
}

// switchFrom transfers the core away from cur, which must have already been
// placed in its new state (and re-queued if still runnable). It parks cur
// and returns once cur is dispatched again. If no thread can run, it halts
// the machine and cur unwinds via threadKilled.
func (k *Kernel) switchFrom(cur *Thread) {
	next := k.pickReady()
	if next == cur {
		cur.state = ThreadRunning
		k.current = cur
		return
	}
	if next == nil {
		k.current = nil
		k.noRunnable()
		panic(threadKilled{})
	}
	k.dispatch(next)
	k.park(cur)
}

// preempt yields the core if a higher-priority thread became ready on
// cur's own core (other cores' queues never preempt: they get the machine
// when the virtual-time merge reaches them). cur must be the running thread.
// Preemption is deferred while cur executes inside a component invocation:
// COMPOSITE's invocation paths are short and non-preemptible, and deferring
// to the invocation boundary keeps a thread from being descheduled with a
// half-finished server operation that a µ-reboot would otherwise tear out
// from under it. The deferred check runs when the outermost invocation
// returns (see Invoke).
func (k *Kernel) preempt(cur *Thread) {
	if len(cur.invStack) > 0 || cur.noPreempt > 0 {
		return
	}
	higher := false
	for _, t := range k.cores[cur.core].ready {
		if t.state == ThreadRunnable && t.prio < cur.prio {
			higher = true
			break
		}
	}
	if !higher {
		return
	}
	cur.state = ThreadRunnable
	k.enqueue(cur)
	k.switchFrom(cur)
}

// noRunnable handles the no-runnable-thread condition: clean shutdown
// when every thread exited, hang otherwise.
func (k *Kernel) noRunnable() {
	live := 0
	for _, t := range k.threads {
		if t.state != ThreadExited {
			live++
		}
	}
	if live == 0 {
		k.halt(nil)
		return
	}
	k.halt(ErrHang)
}

// halt stops the machine and records the terminal error. No thread is
// dispatched after it, so the Run driver leaves its loop and unwinds every
// parked thread. Idempotent.
func (k *Kernel) halt(err error) {
	if k.halted.Load() {
		return
	}
	k.halted.Store(true)
	k.haltErr = err
}

// Halted reports whether the machine has stopped. It reads an atomic flag,
// so it is safe from any goroutine.
func (k *Kernel) Halted() bool { return k.halted.Load() }

// CrashSystem records an unrecoverable whole-system failure (the campaign's
// "segfault" outcome: the fault corrupted state outside the recoverable
// domain, and the physical machine would need a reboot) and halts the
// machine. It must be called from the running thread and does not return:
// the calling thread unwinds.
func (k *Kernel) CrashSystem(t *Thread, comp ComponentID, reason string) {
	crash := &SystemCrash{Reason: reason, Comp: comp}
	if t != nil {
		crash.Thread = t.id
		t.state = ThreadExited
	}
	k.crash = crash
	k.current = nil
	k.halt(crash)
	panic(threadKilled{})
}

// HangCurrent models an infinite loop on the calling thread (a corrupted
// loop-counter register). Without the watchdog, the thread parks forever and
// the system halts with ErrHang once no other thread can make progress.
// With the watchdog enabled and the thread executing inside a component,
// the spin instead burns the component's invocation budget, the watchdog
// fires, the component is marked failed, and HangCurrent returns with a
// *Fault armed for Invoke to deliver — the hang becomes a recoverable
// component fault. Hangs outside any component remain terminal.
func (k *Kernel) HangCurrent(t *Thread) {
	if k.Halted() || t != k.current {
		panic(threadKilled{})
	}
	k.hung = true
	if k.watchdogHang(t) {
		return
	}
	t.state = ThreadBlocked
	t.blockedIn = 0
	t.pendingFault = nil
	k.switchFrom(t)
	// Only a kill can resume a hung thread; Wakeup may still find it
	// blocked, so if resumed, hang again.
	for !k.Halted() {
		t.state = ThreadBlocked
		k.switchFrom(t)
	}
	panic(threadKilled{})
}

// HangCurrentAs is HangCurrent with an explicit fault classification: the
// watchdog books the caught hang as the given kind (fault.KindLivelock for
// a component cycling without progress, fault.KindHang for a plain
// unbounded loop). Campaign injectors use it to exercise the control-flow
// rows of the taxonomy distinctly.
func (k *Kernel) HangCurrentAs(t *Thread, kind fault.Kind) {
	t.hangKind = kind
	k.HangCurrent(t)
}

// Hung reports whether HangCurrent was invoked (a latent-fault marker for
// campaign classification).
func (k *Kernel) Hung() bool { return k.hung }
