package kernel

import (
	"errors"
	"fmt"

	"superglue/internal/fault"
)

// ThreadState is the life-cycle state of a simulated thread.
type ThreadState int

// Thread states.
const (
	// ThreadRunnable means the thread is on the ready queue.
	ThreadRunnable ThreadState = iota + 1
	// ThreadRunning means the thread currently owns the (single) core.
	ThreadRunning
	// ThreadBlocked means the thread is blocked inside a component (e.g.,
	// contending a lock or waiting on an event) until woken explicitly.
	ThreadBlocked
	// ThreadSleeping means the thread is blocked until a simulated time.
	ThreadSleeping
	// ThreadExited means the thread's entry function returned.
	ThreadExited
)

// String implements fmt.Stringer.
func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadBlocked:
		return "blocked"
	case ThreadSleeping:
		return "sleeping"
	case ThreadExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Thread is one simulated thread. Threads execute cooperatively: exactly one
// thread runs at a time, and control transfers only at explicit kernel
// operations (Block, Sleep, Yield, Wakeup-preemption, thread exit).
//
// A Thread value is only valid on the thread itself (its body runs on a
// kernel-owned coroutine); kernel entry points that take a *Thread must be
// passed the running thread.
type Thread struct {
	id   ThreadID
	name string
	prio int // lower value = higher priority

	k     *Kernel
	entry func(*Thread)

	state     ThreadState
	seq       uint64      // ready-queue arrival order for FIFO tie-breaking
	host      *host       // coroutine running the body; nil before first dispatch and after exit
	blockedIn ComponentID // valid while state == ThreadBlocked
	wakeAt    Time        // valid while state == ThreadSleeping

	// core is the simulated core the thread is scheduled on: mutated only
	// by the running thread itself (migration, cross-core invocation) or at
	// creation.
	core int32

	// migPending marks a migration whose latency is still being measured:
	// migStart is the source core's clock at departure and migFrom the
	// source core; the dispatcher settles the measurement (destination
	// clock − migStart, the migration charge plus any queueing delay on the
	// destination) when the thread is next dispatched. migInvoke
	// distinguishes a cross-core invocation entry from an explicit or
	// return migration.
	migPending bool
	migFrom    int32
	migStart   Time
	migInvoke  bool

	// wakePending latches a Wakeup delivered while the thread was not
	// blocked, so the next Block returns immediately instead of losing the
	// wakeup — the dependency-counting semantics of COMPOSITE's
	// sched_blk/sched_wakeup pair.
	wakePending bool

	// lastParkWasBlock distinguishes a thread woken from Block from one
	// woken from Sleep; a µ-reboot diverting a woken-but-not-yet-run
	// thread re-latches its consumed wakeup only in the Block case.
	lastParkWasBlock bool

	// redoCredit marks a wakePending latch that was granted as part of a
	// fault divert; it is dropped (if unconsumed) when the retried
	// invocation completes, so it cannot leak into later blocking calls
	// as a spurious wakeup. creditFn names the diverted function, so the
	// credit survives recovery-walk invocations of other functions and is
	// only retired when the retried call itself completes.
	redoCredit bool
	creditFn   string

	// noPreempt suppresses preemption while > 0: recovery walks run as
	// short non-preemptible critical sections so a half-recovered
	// descriptor is never observed by another thread (the stub-lock
	// equivalent). Blocking still switches; only involuntary preemption is
	// deferred.
	noPreempt int

	// pendingFault diverts a blocked thread back to its client: when the
	// component a thread is blocked in is µ-rebooted, the thread is woken
	// eagerly and its Block call returns this fault.
	pendingFault *Fault

	// watchdogFault is armed by the watchdog when it catches this thread
	// hanging inside a component: Invoke consumes it when the invocation
	// hook returns and unwinds with the fault instead of delivering a
	// result, turning the latent fault into the fail-stop recovery path.
	watchdogFault *Fault

	// injectedFault is a one-shot transient fault (message loss) armed by
	// InjectTransientFault from an entry hook; Invoke consumes it when the
	// hook returns and unwinds without dispatching. injectDup is the
	// analogous one-shot duplicate-delivery flag (message duplication):
	// Invoke dispatches the operation twice. Both are owned by the thread
	// (armed and consumed while it runs), so no locking is needed.
	injectedFault *Fault
	injectDup     bool

	// hangKind classifies the next watchdog-caught hang on this thread
	// (fault.KindHang vs fault.KindLivelock); set by HangCurrentAs before
	// parking, consumed by watchdogHang. Zero means KindHang.
	hangKind fault.Kind

	// invStack records the components the thread is executing in, outermost
	// first. Entry 0 is absent for "home" (application) execution. fnStack
	// holds the corresponding interface function names. Only the running
	// thread pushes and pops them.
	invStack []ComponentID
	fnStack  []string

	// regs is the modeled register file while executing inside a component;
	// the SWIFI injector flips bits here.
	regs RegFile

	err error // entry panic converted to error, reported via Kernel halt
}

// threadKilled is the panic payload used to unwind a simulated thread when
// the machine halts. It never escapes runThread.
type threadKilled struct{}

// topOfStack returns the innermost component of the thread's invocation
// stack, or zero for home (application) execution.
func (t *Thread) topOfStack() ComponentID {
	if n := len(t.invStack); n > 0 {
		return t.invStack[n-1]
	}
	return 0
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Prio returns the thread's fixed priority (lower value = higher priority).
func (t *Thread) Prio() int { return t.prio }

// Kernel returns the kernel the thread belongs to.
func (t *Thread) Kernel() *Kernel { return t.k }

// State returns the thread's current state.
func (t *Thread) State() ThreadState { return t.state }

// Executing returns the innermost component the thread is executing in, or
// zero if it is running application code.
func (t *Thread) Executing() ComponentID { return t.topOfStack() }

// Regs returns a pointer to the thread's modeled register file. Only the
// running thread (or an invocation hook running on it) may touch it.
func (t *Thread) Regs() *RegFile { return &t.regs }

// ErrNotCurrent reports a kernel call made on behalf of a thread that is not
// the running thread — a bug in the calling code.
var ErrNotCurrent = errors.New("kernel: calling thread is not the running thread")

// CreateThread creates a simulated thread that will execute entry on the
// creator's core (core 0 when creator is nil). It may be called before Run
// (to seed the system) or by a running thread; in the latter case creator is
// the running thread and a higher-priority new thread on the same core
// preempts it immediately. Pass creator == nil when seeding the machine
// before Run (or from an inbox call).
func (k *Kernel) CreateThread(creator *Thread, name string, prio int, entry func(*Thread)) (ThreadID, error) {
	core := 0
	if creator != nil {
		core = int(creator.core)
	}
	return k.CreateThreadOn(creator, name, prio, core, entry)
}

// CreateThreadOn is CreateThread with an explicit core placement for the new
// thread.
func (k *Kernel) CreateThreadOn(creator *Thread, name string, prio int, core int, entry func(*Thread)) (ThreadID, error) {
	if entry == nil {
		return 0, errors.New("kernel: nil thread entry")
	}
	if core < 0 || core >= len(k.cores) {
		return 0, fmt.Errorf("kernel: thread placed on core %d of a %d-core machine", core, len(k.cores))
	}
	if k.Halted() {
		return 0, ErrHalted
	}
	if creator != nil && creator != k.current {
		return 0, ErrNotCurrent
	}
	t := &Thread{
		id:    ThreadID(len(k.threads) + 1),
		name:  name,
		prio:  prio,
		core:  int32(core),
		k:     k,
		entry: entry,
		state: ThreadRunnable,
	}
	k.threads = append(k.threads, t)
	k.enqueue(t)

	if creator != nil {
		k.preempt(creator)
	}
	return t.id, nil
}

// migrate moves the running thread t to core dst: it synchronizes the
// destination clock (dst.clock = max(dst.clock, src.clock) + migration
// cost), re-homes the thread, and yields so the merge can schedule
// lower-clock cores first; it returns once t is dispatched on dst. forInvoke
// marks a cross-core invocation entry (counted separately).
func (k *Kernel) migrate(t *Thread, dst int32, forInvoke bool) {
	if k.Halted() || t != k.current || dst == t.core {
		return
	}
	src := &k.cores[t.core]
	d := &k.cores[dst]
	if d.clock < src.clock {
		d.clock = src.clock
	}
	d.clock += MigrationCost
	d.migrations++
	if forInvoke {
		d.crossInv++
	}
	t.migPending = true
	t.migFrom = t.core
	t.migStart = src.clock
	t.migInvoke = forInvoke
	t.core = dst
	t.state = ThreadRunnable
	k.enqueue(t)
	k.switchFrom(t)
}

// Thread looks up a thread by ID.
func (k *Kernel) Thread(id ThreadID) (*Thread, error) {
	if id < 1 || int(id) > len(k.threads) {
		return nil, fmt.Errorf("kernel: no such thread %d", id)
	}
	return k.threads[id-1], nil
}

// runThread runs t's entry function on its host once t is first
// dispatched, and hands the core to the next thread on return. A
// threadKilled panic (machine halt) unwinds silently; any other panic halts
// the machine with an error.
func (k *Kernel) runThread(t *Thread) {
	defer func() {
		r := recover()
		if _, ok := r.(threadKilled); ok || r == nil {
			if r == nil {
				k.exitCurrent(t)
			}
			return
		}
		// A real panic in simulated code: halt the machine with the error.
		t.state = ThreadExited
		k.halt(fmt.Errorf("kernel: panic on thread %d (%s): %v", t.id, t.name, r))
	}()
	t.entry(t)
}

// exitCurrent retires the running thread and dispatches the next one.
func (k *Kernel) exitCurrent(t *Thread) {
	t.state = ThreadExited
	k.current = nil
	if k.Halted() {
		return
	}
	if next := k.pickReady(); next != nil {
		k.dispatch(next)
		return
	}
	k.noRunnable()
}

// Block parks the calling thread until another thread wakes it with Wakeup.
// It returns nil on a normal wakeup. If the component the thread is blocked
// in fails and is µ-rebooted, the thread is woken eagerly (mechanism T0) and
// Block returns the *Fault; service code must propagate that error up the
// invocation path unmodified so the client stub can run recovery.
func (k *Kernel) Block(t *Thread) error {
	if k.Halted() {
		return ErrHalted
	}
	if t != k.current {
		return ErrNotCurrent
	}
	if t.wakePending {
		t.wakePending = false
		t.redoCredit = false
		t.creditFn = ""
		return nil
	}
	t.state = ThreadBlocked
	t.lastParkWasBlock = true
	return k.parkIn(t)
}

// parkIn switches away from t, which has just blocked or gone to sleep
// inside its innermost component, and returns the pending fault that
// diverted it, if any, once it runs again.
func (k *Kernel) parkIn(t *Thread) error {
	t.blockedIn = t.topOfStack()
	k.switchFrom(t)
	t.blockedIn = 0
	if f := t.pendingFault; f != nil {
		t.pendingFault = nil
		return f
	}
	return nil
}

// Sleep parks the calling thread for d microseconds of simulated time.
func (k *Kernel) Sleep(t *Thread, d Time) error {
	if d < 0 {
		return fmt.Errorf("kernel: negative sleep %d", d)
	}
	if k.Halted() {
		return ErrHalted
	}
	if t != k.current {
		return ErrNotCurrent
	}
	t.state = ThreadSleeping
	t.lastParkWasBlock = false
	t.wakeAt = k.cores[t.core].clock + d
	return k.parkIn(t)
}

// Wakeup moves a blocked or sleeping thread to the ready queue. If the woken
// thread has higher priority than the caller, the caller is preempted
// immediately (single-core preemptive priority scheduling). Waking a thread
// that is not blocked latches the wakeup so the thread's next Block returns
// immediately — the dependency-counting semantics of COMPOSITE's
// sched_blk/sched_wakeup pair, which also makes wakeup replay during
// recovery idempotent. Waking an exited thread is a no-op.
func (k *Kernel) Wakeup(caller *Thread, id ThreadID) error {
	if k.Halted() {
		return ErrHalted
	}
	if caller != nil && caller != k.current {
		return ErrNotCurrent
	}
	if id < 1 || int(id) > len(k.threads) {
		return fmt.Errorf("kernel: wakeup of unknown thread %d", id)
	}
	if k.wake(k.threads[id-1]) && caller != nil {
		k.preempt(caller)
	}
	return nil
}

// wake makes a blocked or sleeping thread runnable and reports whether it
// did; a wakeup of a thread that is not blocked latches instead.
func (k *Kernel) wake(t *Thread) bool {
	if t.state != ThreadBlocked && t.state != ThreadSleeping {
		if t.state != ThreadExited {
			t.wakePending = true
		}
		return false
	}
	t.state = ThreadRunnable
	k.enqueue(t)
	return true
}

// Yield hands the core to the next thread of equal or higher priority; the
// caller stays runnable and resumes in FIFO order.
func (k *Kernel) Yield(t *Thread) error {
	if k.Halted() {
		return ErrHalted
	}
	if t != k.current {
		return ErrNotCurrent
	}
	t.state = ThreadRunnable
	k.enqueue(t)
	k.switchFrom(t)
	return nil
}

// ExternalWakeup makes a blocked or sleeping thread runnable from outside
// the simulation — the interrupt path an I/O goroutine uses to signal a
// simulated thread. Unlike Wakeup it has no calling-thread context and never
// preempts. Safe for concurrent use: while the machine runs, the wakeup goes
// through the inbox and takes effect at the next scheduling decision
// (typically the idle handler's return), and a wakeup of an unknown thread
// is then dropped; otherwise it applies at once and reports that error.
func (k *Kernel) ExternalWakeup(id ThreadID) error {
	if k.Halted() {
		return ErrHalted
	}
	var err error
	if k.inbox.submit(func() { err = k.externalWakeup(id) }, false) {
		return err
	}
	return nil
}

// externalWakeup is ExternalWakeup inside the machine.
func (k *Kernel) externalWakeup(id ThreadID) error {
	if k.Halted() {
		return ErrHalted
	}
	if id < 1 || int(id) > len(k.threads) {
		return fmt.Errorf("kernel: external wakeup of unknown thread %d", id)
	}
	k.wake(k.threads[id-1])
	return nil
}

// PushNoPreempt enters a non-preemptible critical section on the calling
// thread. Sections nest; PopNoPreempt leaves the innermost one and performs
// any preemption deferred while inside. Recovery code brackets descriptor
// walks with these so that no other thread observes a half-recovered
// descriptor.
func (k *Kernel) PushNoPreempt(t *Thread) { t.noPreempt++ }

// PopNoPreempt leaves the innermost non-preemptible section.
func (k *Kernel) PopNoPreempt(t *Thread) {
	if t.noPreempt > 0 {
		t.noPreempt--
	}
	if t.noPreempt == 0 && t == k.current && !k.Halted() {
		k.preempt(t)
	}
}
