// Package kernel implements a deterministic, multi-core simulation of the
// COMPOSITE component-based µ-kernel that the SuperGlue paper (DSN 2016)
// builds on.
//
// The simulator reproduces the properties interface-driven recovery depends
// on:
//
//   - Fine-grained isolation: every component owns private state that is
//     reachable only through kernel-mediated invocations, mirroring
//     page-table protection. A fault corrupts at most one component.
//   - Synchronous invocations via thread migration: an invocation executes
//     on the calling thread inside the server component, and the kernel
//     tracks the invocation stack of every thread.
//   - Fault exceptions: invoking a component that has failed (or failing
//     while executing inside one) delivers a *Fault to the caller, the
//     analogue of the hardware exception that COMPOSITE vectors to the
//     booter component.
//   - µ-reboot: the booter can reinstate a failed component from its clean
//     image (factory), bump its epoch, and run eager-recovery hooks.
//
// Each simulated thread body runs in a coroutine (an iter.Pull host,
// recycled across threads and machines), and Run is the one driver loop:
// a thread that parks records its successor and yields to Run, which
// resumes the successor. A thread borrows its host from a free list
// instead of starting a goroutine, no channel is made per thread, and a
// switch never enters the Go scheduler (see host.go).
//
// Scheduling is cooperative over M simulated cores: each core has its own
// run queue and its own virtual clock, and the dispatcher executes exactly
// one simulated thread at a time, drawn from the core whose clock is
// smallest — a discrete-event merge over per-core timelines. Within a core,
// selection is fixed priority (lower value = higher priority) with FIFO
// ordering among equals, and wakeups of higher-priority threads on the same
// core preempt the running thread. The merge rule — smallest
// (vtime, coreID), then (prio, seq) within the winning core — is a total
// order, so for a fixed seed the schedule is byte-identical for any
// GOMAXPROCS and any core count; with M=1 it degenerates exactly to the
// original single-core scheduler. Components may declare a home core
// (SetComponentCore); invoking such a component from another core migrates
// the thread there synchronously and back on return, charging a migration
// cost to the destination clock and propagating virtual time Lamport-style
// (dst.clock = max(dst.clock, src.clock) + cost).
//
// One rule governs concurrency: all state the machine owns is plain memory,
// and only code running inside Run touches it — thread bodies, services,
// hooks, the idle handler and the driver itself, which the coroutine
// switches already order. The outside world reaches a running machine
// through one inbox (Post, Do, ExternalWakeup) that the driver drains at
// every scheduling decision; before Run starts and after it returns,
// callers use the state directly. Only the component (epoch, faulty) word
// and the halted flag stay atomic: their writes are rare, and they are the
// reads a client stub or a monitor makes most. See DESIGN.md §5d.
package kernel

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"superglue/internal/fault"
	"superglue/internal/obs"
)

// Word is the machine word used for invocation arguments and return values.
// COMPOSITE invocations pass register-sized (long) values; descriptor
// identifiers in SuperGlue are longs as well.
type Word = int64

// ComponentID names a component. IDs are assigned densely starting at 1.
type ComponentID int32

// ThreadID names a simulated thread. IDs are assigned densely starting at 1.
type ThreadID int32

// InvokePhase tells an invocation hook where in the invocation life cycle it
// is being called.
type InvokePhase int

// Invocation phases observed by hooks.
const (
	// PhaseEntry is reported right after a thread migrates into the server.
	PhaseEntry InvokePhase = iota + 1
	// PhaseExit is reported right before the thread returns to the client,
	// while the return value still lives in a register (the window in which
	// a register fault can propagate a corrupt value to the caller).
	PhaseExit
)

// InvokeHook observes component invocations. The SWIFI injector installs one
// to flip register bits of threads executing inside a target component.
// The hook runs on the simulated thread itself, with the kernel unlocked.
type InvokeHook func(t *Thread, comp ComponentID, fn string, phase InvokePhase)

// Service is the behavior of a component: a named dispatch table plus an
// initialization entry point invoked at boot and after every µ-reboot.
type Service interface {
	// Name returns the service name (used in traces and errors).
	Name() string
	// Init is the component's re-initialization upcall. It runs at boot and
	// after each µ-reboot, before any invocation is delivered.
	Init(bc *BootContext) error
	// Dispatch handles one invocation of interface function fn. It runs on
	// the invoking (migrated) thread.
	Dispatch(t *Thread, fn string, args []Word) (Word, error)
}

// BootContext is handed to Service.Init so a freshly (re)booted component
// can reach the kernel and learn its own identity and epoch.
type BootContext struct {
	Kernel *Kernel
	Self   ComponentID
	// Epoch is the component's current epoch: 0 for the first boot,
	// incremented by every µ-reboot.
	Epoch uint64
	// Thread is the thread performing the (re)boot upcall, if any.
	Thread *Thread
}

// compFaulty is the failed-state flag bit of a component's packed state
// word; the epoch occupies the remaining 63 bits (state >> 1).
const compFaulty = 1

// packState packs a component's (epoch, faulty) pair into one word for a
// single-load snapshot on the invocation fast path.
func packState(epoch uint64, faulty bool) uint64 {
	s := epoch << 1
	if faulty {
		s |= compFaulty
	}
	return s
}

// component is the kernel-side representation of a protection domain.
//
// The (epoch, faulty) pair every invocation consults is packed into the
// atomic state word, the one piece of component state readable from any
// goroutine (Epoch, Faulty, CompRef). Everything else is machine-owned
// plain memory. A µ-reboot stores the fresh instance before bumping the
// state word.
type component struct {
	id      ComponentID
	name    string
	factory func() Service
	profile RegProfile
	// budget is the per-component watchdog invocation budget override
	// (0 = the watchdog config default). See SetInvokeBudget.
	budget Time

	// state packs (epoch << 1) | faulty — see packState.
	//sgvet:atomicstate accessors=snapshot,curEpoch,markFaultyAs,install
	state atomic.Uint64
	// svc is the live service instance.
	svc Service
	// meta packs the pending fault's (kind << 8) | severity classification
	// (see packFaultMeta): written with the faulty bit, cleared by install.
	meta uint32

	// core is the component's home core, or NoAffinity when the component
	// executes on whatever core invokes it (the single-core-era behavior,
	// still the default).
	core int32

	// booting marks the µ-reboot window between the fresh instance's
	// install and the completion of its Init upcall and reboot hooks. On a
	// multi-core machine the rebooting thread parks inside that window
	// (migrating to the component's home core, and again when recovery
	// hooks replay held invocations cross-core), so other threads could
	// otherwise dispatch into an instance whose state is not constructed
	// yet. They wait on bootWaiters instead; bootThread (the rebooting
	// thread) is exempt so hook replays pass through. Single-core machines
	// never open the window — the booter cannot park mid-boot — so the flag
	// toggles unobserved there.
	booting     bool
	bootThread  *Thread
	bootWaiters []*Thread
}

// NoAffinity is the home-core value of a component with no core placement:
// it executes on the invoking thread's core, wherever that is.
const NoAffinity int32 = -1

// packFaultMeta packs a fault classification into the component's meta word.
func packFaultMeta(kind fault.Kind, sev fault.Severity) uint32 {
	return uint32(kind)<<8 | uint32(sev)
}

// faultMeta returns the pending fault's classification (zero when the
// component never faulted or was reinstalled since).
func (c *component) faultMeta() (fault.Kind, fault.Severity) {
	m := c.meta
	return fault.Kind(m >> 8), fault.Severity(m & 0xff)
}

// snapshot returns a consistent (epoch, faulty) view from one atomic load.
func (c *component) snapshot() (epoch uint64, faulty bool) {
	s := c.state.Load()
	return s >> 1, s&compFaulty != 0
}

// curEpoch returns the component's current epoch.
func (c *component) curEpoch() uint64 { return c.state.Load() >> 1 }

// markFaultyAs sets the faulty bit with a fault classification, preserving
// the epoch.
func (c *component) markFaultyAs(kind fault.Kind, sev fault.Severity) {
	c.meta = packFaultMeta(kind, sev)
	epoch, _ := c.snapshot()
	c.state.Store(packState(epoch, true))
}

// install makes svc the live instance and stores the clean state word for
// epoch (registration and µ-reboot).
func (c *component) install(svc Service, epoch uint64) {
	c.svc = svc
	c.meta = 0
	c.state.Store(packState(epoch, false))
}

// ErrNoSuchComponent is returned for invocations that target an unknown
// component ID.
var ErrNoSuchComponent = errors.New("kernel: no such component")

// ErrNoSuchFunction is the conventional error services return for an unknown
// interface function.
var ErrNoSuchFunction = errors.New("kernel: no such interface function")

// ErrHalted is returned for operations on a kernel whose simulation already
// finished or crashed.
var ErrHalted = errors.New("kernel: system halted")

// ErrInvalidDescriptor is the EINVAL analogue services return when an
// invocation names a descriptor they do not know — after a µ-reboot this is
// the signal that triggers global-descriptor recovery (mechanism G0).
var ErrInvalidDescriptor = errors.New("kernel: invalid descriptor (EINVAL)")

// Kernel is one simulated machine instance. The zero value is not usable;
// construct with New.
type Kernel struct {
	// inbox is the outside world's one door into a running machine (see
	// inbox.go); every other field is machine-owned.
	inbox inbox

	comps   []*component // index = ComponentID-1
	threads []*Thread    // index = ThreadID-1
	cores   []coreState  // per-core run queues + clocks; index = core number
	current *Thread
	seq     uint64 // global arrival sequence counter for FIFO tie-breaking

	// multicore is len(cores) > 1, immutable after New: the invocation fast
	// path consults it so single-core machines pay no affinity check.
	multicore bool
	// clock is simulated time in µs, mirroring the virtual clock of the core
	// whose thread is currently running (per-core clocks are authoritative
	// and live in cores[i].clock). Now and the trace recorder read it.
	clock Time

	// next is the thread the Run driver resumes when the running thread
	// yields: written by dispatch, read by the driver after the coroutine
	// switch. nil after a halt ends the driver's loop.
	next *Thread

	// halted is atomic so Halted can be read from any goroutine; it is
	// written once, by halt.
	//sgvet:atomicstate accessors=halt,Halted
	halted  atomic.Bool
	hung    bool
	haltErr error

	hook        InvokeHook
	rebootHooks []RebootHook
	idle        IdleHandler
	crash       *SystemCrash

	// Watchdog state (see watchdog.go). Off by default: the baseline
	// campaign keeps the paper's fail-stop-only fault model.
	wdEnabled bool
	wdBudget  Time
	wdMax     int
	wdStats   WatchdogStats

	// invCount counts completed component invocations (observability);
	// upcallCount counts the subset initiated through Upcall, kept distinct
	// so recovery-cost accounting never conflates the two directions.
	invCount    uint64
	upcallCount uint64

	// tracer is the optional recovery-observability recorder (see
	// internal/obs). Disabled tracing is a nil pointer.
	tracer *obs.Recorder
}

// Time is simulated time in microseconds.
type Time int64

// RebootHook runs after a component has been µ-rebooted and re-initialized.
// The recovery engine registers one to perform eager (T0) recovery.
type RebootHook func(t *Thread, comp ComponentID, epoch uint64)

// SystemCrash records an unrecoverable, whole-system failure (the analogue
// of the machine exiting with a segmentation fault during the paper's
// campaign, after which the machine must be rebooted).
type SystemCrash struct {
	Reason string
	Comp   ComponentID
	Thread ThreadID
}

// Error implements error.
func (c *SystemCrash) Error() string {
	return fmt.Sprintf("kernel: system crash in component %d on thread %d: %s", c.Comp, c.Thread, c.Reason)
}

// coreState is one simulated core: its private run queue and its virtual
// clock. The dispatcher's merge picks the core with the smallest
// (clock, index) among cores with runnable work.
type coreState struct {
	ready []*Thread // FIFO arrival order; selection scans for min (prio, seq)
	clock Time      // this core's virtual time in µs

	// Per-core observability counters (CoreStats).
	dispatches uint64 // threads dispatched onto this core
	migrations uint64 // threads migrated onto this core
	crossInv   uint64 // migrations that were cross-core invocation entries
}

// CoreStats is an observability snapshot of one simulated core.
type CoreStats struct {
	// Core is the core number.
	Core int
	// Clock is the core's virtual time in µs.
	Clock Time
	// Dispatches counts threads dispatched onto the core.
	Dispatches uint64
	// Migrations counts threads migrated onto the core (explicit migration,
	// cross-core invocation entry, and cross-core invocation return).
	Migrations uint64
	// CrossCoreInvocations counts the subset of migrations that entered the
	// core to execute a cross-core invocation of a component homed here.
	CrossCoreInvocations uint64
}

// New constructs an empty simulated machine with one core.
func New() *Kernel {
	return NewWithCores(1)
}

// NewWithCores constructs an empty simulated machine with m cores (m < 1 is
// treated as 1). With m == 1 the kernel behaves byte-identically to the
// original single-core scheduler; with m > 1 the dispatcher merges per-core
// virtual timelines deterministically (see the package comment).
func NewWithCores(m int) *Kernel {
	if m < 1 {
		m = 1
	}
	return &Kernel{
		cores:     make([]coreState, m),
		multicore: m > 1,
	}
}

// MigrationCost is the virtual-time cost (µs) charged to the destination
// core's clock per thread migration.
const MigrationCost Time = 1

// NumCores returns the number of simulated cores.
func (k *Kernel) NumCores() int { return len(k.cores) }

// CoreStats returns an observability snapshot of every simulated core.
func (k *Kernel) CoreStats() []CoreStats {
	out := make([]CoreStats, len(k.cores))
	for i := range k.cores {
		c := &k.cores[i]
		out[i] = CoreStats{
			Core:                 i,
			Clock:                c.clock,
			Dispatches:           c.dispatches,
			Migrations:           c.migrations,
			CrossCoreInvocations: c.crossInv,
		}
	}
	return out
}

// SetComponentCore pins a component to a home core: threads on other cores
// that invoke it migrate there for the invocation and back on return, and
// µ-reboots re-initialize it on that core. Pass NoAffinity (or any negative
// core) to clear the placement. Placement on a core the machine does not
// have is an error.
func (k *Kernel) SetComponentCore(id ComponentID, core int) error {
	c, err := k.lookup(id)
	if err != nil {
		return err
	}
	if core >= len(k.cores) {
		return fmt.Errorf("kernel: component %d placed on core %d of a %d-core machine", id, core, len(k.cores))
	}
	if core < 0 {
		c.core = NoAffinity
	} else {
		c.core = int32(core)
	}
	return nil
}

// Register installs a component built by factory and boots it by calling
// Init on a fresh instance. The factory is retained as the component's clean
// image: µ-rebooting the component constructs a new instance from it, the
// simulation analogue of the booter's memcpy from the pristine image.
func (k *Kernel) Register(factory func() Service) (ComponentID, error) {
	if factory == nil {
		return 0, errors.New("kernel: nil component factory")
	}
	svc := factory()
	if svc == nil {
		return 0, errors.New("kernel: component factory returned nil")
	}

	id := ComponentID(len(k.comps) + 1)
	c := &component{id: id, name: svc.Name(), factory: factory, profile: DefaultRegProfile(), core: NoAffinity}
	c.install(svc, 0)
	k.comps = append(k.comps, c)
	k.tracer.SetComponentName(int32(id), c.name)

	if err := svc.Init(&BootContext{Kernel: k, Self: id, Epoch: 0}); err != nil {
		return 0, fmt.Errorf("kernel: init of component %q: %w", svc.Name(), err)
	}
	return id, nil
}

// MustRegister is Register for wiring code where registration cannot fail.
// It panics on error and is intended for system assembly in main functions
// and tests.
func (k *Kernel) MustRegister(factory func() Service) ComponentID {
	id, err := k.Register(factory)
	if err != nil {
		panic(err)
	}
	return id
}

// SetRegProfile sets the register-usage profile the kernel applies to
// threads executing inside comp. The profile determines how a register
// bit-flip manifests (see RegProfile).
func (k *Kernel) SetRegProfile(comp ComponentID, p RegProfile) error {
	c, err := k.lookup(comp)
	if err != nil {
		return err
	}
	c.profile = p
	return nil
}

// SetInvokeHook installs the invocation observer (nil clears it).
func (k *Kernel) SetInvokeHook(h InvokeHook) { k.hook = h }

// AddRebootHook appends a hook that runs after every µ-reboot.
func (k *Kernel) AddRebootHook(h RebootHook) {
	k.rebootHooks = append(k.rebootHooks, h)
}

// ComponentName resolves a component's name, or "?" if unknown.
func (k *Kernel) ComponentName(id ComponentID) string {
	c := k.comp(id)
	if c == nil {
		return "?"
	}
	return c.name
}

// Epoch returns the current epoch of a component. It reads the atomic
// state word, so it is safe from any goroutine once registration is done.
func (k *Kernel) Epoch(id ComponentID) (uint64, error) {
	c, err := k.lookup(id)
	if err != nil {
		return 0, err
	}
	return c.curEpoch(), nil
}

// CompRef is a handle to one component's fault/epoch state: client stubs
// resolve it once at construction and then read the packed (epoch, faulty)
// snapshot with a single atomic load per invocation.
type CompRef struct{ c *component }

// Ref resolves a component to a CompRef. The handle stays valid for the
// kernel's lifetime (components are never deregistered; µ-reboots replace
// the instance behind the same handle).
func (k *Kernel) Ref(id ComponentID) (CompRef, error) {
	c, err := k.lookup(id)
	if err != nil {
		return CompRef{}, err
	}
	return CompRef{c: c}, nil
}

// ID returns the referenced component.
func (r CompRef) ID() ComponentID { return r.c.id }

// Epoch returns the component's current epoch (one atomic load).
func (r CompRef) Epoch() uint64 { return r.c.curEpoch() }

// Faulty reports whether the component is in the failed state.
func (r CompRef) Faulty() bool { _, f := r.c.snapshot(); return f }

// Snapshot returns a consistent (epoch, faulty) pair from one atomic load.
func (r CompRef) Snapshot() (epoch uint64, faulty bool) { return r.c.snapshot() }

// Service returns the live service instance of a component. It is intended
// for reflection-style recovery and tests; normal interaction must go
// through Invoke.
func (k *Kernel) Service(id ComponentID) (Service, error) {
	c, err := k.lookup(id)
	if err != nil {
		return nil, err
	}
	return c.svc, nil
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.clock }

// SetTracer installs (or, with nil, removes) the recovery-observability
// recorder. The kernel stamps every event with the component, thread,
// virtual time, and recovery generation involved; the C³ runtime and
// generated stubs share the same recorder for mechanism-level spans.
// Component names registered so far are published to the recorder.
func (k *Kernel) SetTracer(r *obs.Recorder) {
	k.tracer = r
	for _, c := range k.comps {
		r.SetComponentName(int32(c.id), c.name)
	}
}

// Tracer returns the installed recovery-observability recorder, or nil.
func (k *Kernel) Tracer() *obs.Recorder { return k.tracer }

// InvocationCount returns the number of completed component invocations
// (including upcalls; see UpcallCount for the upcall-only subset).
func (k *Kernel) InvocationCount() uint64 { return k.invCount }

// UpcallCount returns the number of invocations initiated through Upcall —
// recovery infrastructure calling *into* client components — kept distinct
// from ordinary client→server invocations so Fig. 6(b)-style recovery-cost
// accounting can separate the two directions.
func (k *Kernel) UpcallCount() uint64 { return k.upcallCount }

// Crash returns the recorded unrecoverable system crash, if any.
func (k *Kernel) Crash() *SystemCrash { return k.crash }

// comp resolves a component ID; returns nil for unknown IDs.
func (k *Kernel) comp(id ComponentID) *component {
	if id < 1 || int(id) > len(k.comps) {
		return nil
	}
	return k.comps[id-1]
}

// lookup is comp with the conventional error for unknown IDs.
func (k *Kernel) lookup(id ComponentID) (*component, error) {
	if c := k.comp(id); c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrNoSuchComponent, id)
}

// Components returns the IDs of all registered components in registration
// order.
func (k *Kernel) Components() []ComponentID {
	if len(k.comps) == 0 {
		return nil
	}
	ids := make([]ComponentID, len(k.comps))
	for i, c := range k.comps {
		ids[i] = c.id
	}
	return ids
}

// ThreadInfo is a reflection snapshot of one thread, used by recovery code
// that rebuilds scheduler state from kernel thread objects.
type ThreadInfo struct {
	ID        ThreadID
	Name      string
	Prio      int
	State     ThreadState
	Core      int         // core the thread is (or will next be) scheduled on
	BlockedIn ComponentID // component the thread is blocked inside, if Blocked
	Executing ComponentID // innermost component on the invocation stack
}

// ReflectThreads returns a snapshot of all live (non-exited) threads, sorted
// by ID. This is the kernel half of C³'s "reflection" interface: the
// scheduler component rebuilds its run queue from these authoritative kernel
// objects after a µ-reboot.
func (k *Kernel) ReflectThreads() []ThreadInfo {
	var out []ThreadInfo
	for _, t := range k.threads {
		if t.state == ThreadExited {
			continue
		}
		info := ThreadInfo{ID: t.id, Name: t.name, Prio: t.prio, State: t.state, Core: int(t.core)}
		if t.state == ThreadBlocked || t.state == ThreadSleeping {
			info.BlockedIn = t.blockedIn
		}
		info.Executing = t.topOfStack()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	k.tracer.RecordReflect(int64(k.clock), len(out))
	return out
}
