package core

import (
	"errors"
	"fmt"
	"sync"

	"superglue/internal/cbuf"
	"superglue/internal/fault"
	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/storage"
)

// RecoveryMode selects between the two recovery timings of §III-C.
type RecoveryMode int

// Recovery modes.
const (
	// OnDemand (T1) delays descriptor recovery until a thread accesses the
	// descriptor, so recovery runs at the accessing thread's priority.
	OnDemand RecoveryMode = iota + 1
	// Eager (T0 generalized) recovers every tracked descriptor of every
	// client immediately after a µ-reboot, on the rebooting thread.
	Eager
)

// String implements fmt.Stringer.
func (m RecoveryMode) String() string {
	switch m {
	case OnDemand:
		return "on-demand"
	case Eager:
		return "eager"
	default:
		return fmt.Sprintf("RecoveryMode(%d)", int(m))
	}
}

// Upcall function names routed to client components by the recovery runtime.
const (
	// FnRecover asks a client to recover one of its descriptors
	// (mechanisms D1/U0 across components). Args: server component,
	// descriptor NS, descriptor ID.
	FnRecover = "sg.recover"
	// FnRecreate asks the creator of a global descriptor to rebuild it
	// (mechanisms G0/U0). Args: server component, stale server-side ID.
	// Returns the descriptor's new server-side ID.
	FnRecreate = "sg.recreate"
	// FnRebuilt notifies a client component that a descriptor mapped into
	// its namespace was rebuilt by another component's recovery (the
	// memory-manager upcalls of §II-D: "upcalls are made into client
	// components in order to rebuild correct state between dependent
	// mappings ... transparent to client execution"). Args: server
	// component, descriptor NS, descriptor ID. Clients may register an
	// FnRebuilt handler to revalidate local state; without one the
	// notification is a no-op.
	FnRebuilt = "sg.rebuilt"
)

// Runtime errors.
var (
	// ErrUnknownFunction reports a stub call naming a function absent from
	// the interface specification.
	ErrUnknownFunction = errors.New("core: function not in interface specification")
	// ErrUnknownDescriptor reports a non-global descriptor the client
	// never created — a client bug, not a recoverable condition.
	ErrUnknownDescriptor = errors.New("core: descriptor not tracked by this client")
	// ErrInvalidTransition reports an interface call that is invalid in
	// the descriptor's current state — the state machine acting as a fault
	// detector.
	ErrInvalidTransition = errors.New("core: invalid descriptor state transition")
	// ErrRecoveryFailed reports that recovery could not restore a
	// consistent state within the retry budget.
	ErrRecoveryFailed = errors.New("core: recovery failed")
)

// fnInfo is the precompiled per-function dispatch record: everything the
// hot stub path needs without re-deriving it from the specification, with
// every name the path would otherwise hash compiled to a slot.
type fnInfo struct {
	c           *compiledSpec // the interface the function belongs to
	f           *FuncSpec
	slot        int      // index in Spec.Funcs
	fnID        obs.FnID // f.Name interned for trace events
	descIdx     int
	nsIdx       int
	parentIdx   int
	parentNSIdx int
	// data maps each desc_data parameter to its D_dr slot, the word of the
	// descriptor's arena that holds the value.
	data []dataParam
	// accSlot is the D_dr slot the return value is added to
	// (desc_data_retval_acc), or -1.
	accSlot int
	// argOff is the offset of this function's last argument list in the
	// descriptor's arena, or -1 when the arguments are not kept: only
	// creation, pure-transition, and sm_restore functions can appear in a
	// recovery walk, and buildWalkArgs is the sole reader of kept
	// arguments — per-thread hold replay uses its own copy. Skipping the
	// copy for everything else keeps the steady-state wakeup/block path
	// write-free.
	argOff int
	// state is the shared state the function leaves a descriptor in: the
	// function's own state for a pure transition, s0 for a reset.
	state      int32
	isCreate   bool
	isTerminal bool
	isBlocking bool
	isWakeup   bool
	isReset    bool
	isUpdate   bool
	isPure     bool
	isHold     bool
	isRelease  bool
	isRestore  bool
	// walks, on a creation function, holds the recovery walk for each
	// state a descriptor it created can be in (StateMachine.recoveryWalk
	// as dispatch records), indexed by state; a state with no walk is nil.
	walks [][]*fnInfo
}

// dataParam pairs a desc_data parameter's position with its D_dr slot.
type dataParam struct {
	param, slot int
}

// compiledSpec is everything RegisterServer derives from a spec alone:
// the validated state machine and the per-function dispatch table. None
// of it is written after construction, so one compiledSpec is shared by
// every System that registers the same *Spec (see compileSpec).
type compiledSpec struct {
	spec *Spec
	sm   *StateMachine
	// fns holds the dispatch records by function slot.
	fns []*fnInfo
	// dataNames names the D_dr slots: every desc_data parameter name and
	// desc_data_retval_acc field, in first-declaration order.
	dataNames []string
	// arenaLen is the length of a descriptor's arena: the D_dr slots,
	// then each kept argument list.
	arenaLen int
}

// fn returns the dispatch record of the interface function named name,
// or nil. It scans the slots: for an interface's handful of functions
// that costs no more than hashing the name, and a caller passing the
// record's own name string (a bound call, a walk step) matches on the
// string pointer.
func (c *compiledSpec) fn(name string) *fnInfo {
	for _, info := range c.fns {
		if info.f.Name == name {
			return info
		}
	}
	return nil
}

// dataSlot returns the D_dr slot of a tracked data name, or -1.
func (c *compiledSpec) dataSlot(name string) int {
	for i, n := range c.dataNames {
		if n == name {
			return i
		}
	}
	return -1
}

// serverEntry is the per-server bookkeeping the runtime keeps: the
// shared compiled spec plus this System's own class, component, and
// client stubs.
type serverEntry struct {
	*compiledSpec
	class storage.Class
	comp  kernel.ComponentID
	stubs []*ClientStub
}

// compiled memoizes compileSpec per *Spec. Registered specs are
// read-only, so a memoized entry never goes stale, and the memo grows
// with the number of distinct specs, not with the number of Systems
// built. Only specs that compile are memoized.
var compiled sync.Map // *Spec → *compiledSpec

// compileSpec validates spec and builds its compiled form, once per
// *Spec: later calls (from any System, on any goroutine) return the
// memoized result.
func compileSpec(spec *Spec) (*compiledSpec, error) {
	if c, ok := compiled.Load(spec); ok {
		return c.(*compiledSpec), nil
	}
	sm, err := spec.validate()
	if err != nil {
		return nil, err
	}
	c := &compiledSpec{spec: spec, sm: sm}
	compileFns(c)
	actual, _ := compiled.LoadOrStore(spec, c)
	return actual.(*compiledSpec), nil
}

// compileFns builds the per-function dispatch records, numbers the D_dr
// names, lays out the descriptor arena, and resolves every creation
// function's recovery walks to records.
func compileFns(c *compiledSpec) {
	spec, sm := c.spec, c.sm
	slotOf := func(name string) int {
		if i := c.dataSlot(name); i >= 0 {
			return i
		}
		c.dataNames = append(c.dataNames, name)
		return len(c.dataNames) - 1
	}
	c.fns = make([]*fnInfo, len(spec.Funcs))
	for slot, f := range spec.Funcs {
		info := &fnInfo{
			c:           c,
			f:           f,
			slot:        slot,
			fnID:        obs.FnOf(f.Name),
			descIdx:     f.DescIdx(),
			nsIdx:       f.NSIdx(),
			parentIdx:   f.ParentIdx(),
			parentNSIdx: f.ParentNSIdx(),
			accSlot:     -1,
			argOff:      -1,
			state:       int32(sm.state(f.Name)),
			isCreate:    spec.IsCreation(f.Name),
			isTerminal:  spec.IsTerminal(f.Name),
			isBlocking:  spec.IsBlocking(f.Name),
			isWakeup:    spec.IsWakeup(f.Name),
			isReset:     spec.IsReset(f.Name),
			isUpdate:    spec.IsUpdate(f.Name),
			isPure:      spec.IsPure(f.Name),
			isRestore:   spec.IsRestore(f.Name),
		}
		_, info.isHold = spec.HoldFn(f.Name)
		_, info.isRelease = spec.ReleaseFn(f.Name)
		if info.isReset {
			info.state = int32(sm.initial)
		}
		for i, p := range f.Params {
			if p.Role == RoleDescData {
				info.data = append(info.data, dataParam{param: i, slot: slotOf(p.Name)})
			}
		}
		if f.RetAccum != "" {
			info.accSlot = slotOf(f.RetAccum)
		}
		c.fns[slot] = info
	}
	c.arenaLen = len(c.dataNames)
	for _, info := range c.fns {
		if info.isCreate || info.isPure || info.isRestore {
			info.argOff = c.arenaLen
			c.arenaLen += len(info.f.Params)
		}
	}
	for _, info := range c.fns {
		if !info.isCreate {
			continue
		}
		info.walks = make([][]*fnInfo, len(sm.names))
		for st := range info.walks {
			for _, f := range sm.recoveryWalk(info.slot, st) {
				info.walks[st] = append(info.walks[st], c.fns[f])
			}
		}
	}
}

// System wires a kernel, the cbuf manager, the storage component, and the
// SuperGlue recovery runtime together: the assembly a booter would perform
// on a real COMPOSITE system.
type System struct {
	kern      *kernel.Kernel
	cm        *cbuf.Manager
	store     *storage.Store
	storeComp kernel.ComponentID
	mode      RecoveryMode
	policy    RecoveryPolicy
	// polGen is bumped by SetRecoveryPolicy; stubs cache their effective
	// policy and rebuild it when their generation falls behind.
	polGen    uint64
	servers   map[kernel.ComponentID]*serverEntry
	byName    map[string]*serverEntry
	nextClass storage.Class
	clients   []*Client
	// deps is the declared depends-on graph between server components,
	// driving the cascading-reboot rung of the escalation ladder: when
	// retrying a server alone does not clear a fault, its dependencies are
	// µ-rebooted too (leaves first), flushing corrupted state the server
	// may be re-reading from them.
	deps map[kernel.ComponentID][]kernel.ComponentID
	// faultHandlers are the runtime-registered per-kind recovery handlers
	// (see dispatcher.go); nil when none are registered.
	faultHandlers map[fault.Kind]FaultHandler
	// sup is the compiled supervision tree, or nil for the flat legacy
	// restart policy (see supervisor.go).
	sup *supTree
}

// NewSystem constructs a machine with the trusted substrate (kernel, cbuf
// manager, storage component) booted and the recovery runtime in the given
// mode. The machine has one simulated core; NewSystemWithCores boots a
// multi-core machine.
func NewSystem(mode RecoveryMode) (*System, error) {
	return NewSystemWithCores(mode, 1)
}

// NewSystemWithStorage constructs a machine with cores simulated cores and
// a storage component replicated over replicas backends (quorum reads,
// per-replica WAL + checkpoints; see docs/STORAGE.md). replicas < 1 is
// clamped to 1, the paper's trusted single copy.
func NewSystemWithStorage(mode RecoveryMode, cores, replicas int) (*System, error) {
	return newSystem(mode, cores, replicas)
}

// NewSystemWithCores constructs a machine with cores simulated cores (see
// DESIGN.md §11): per-core run queues and virtual clocks with a
// deterministic merge, so a fixed seed yields the same schedule for any
// real GOMAXPROCS. Components execute on their caller's core until placed
// on a home core with PlaceServer.
func NewSystemWithCores(mode RecoveryMode, cores int) (*System, error) {
	return newSystem(mode, cores, 1)
}

func newSystem(mode RecoveryMode, cores, replicas int) (*System, error) {
	if mode != OnDemand && mode != Eager {
		return nil, fmt.Errorf("core: unknown recovery mode %d", int(mode))
	}
	k := kernel.NewWithCores(cores)
	cm := cbuf.NewManager(0)
	st := storage.NewReplicated(cm, replicas)
	storeComp, err := k.Register(func() kernel.Service { return storage.NewComponent(st) })
	if err != nil {
		return nil, fmt.Errorf("core: booting storage component: %w", err)
	}
	s := &System{
		kern:      k,
		cm:        cm,
		store:     st,
		storeComp: storeComp,
		mode:      mode,
		policy:    DefaultRecoveryPolicy(),
		servers:   make(map[kernel.ComponentID]*serverEntry),
		byName:    make(map[string]*serverEntry),
		deps:      make(map[kernel.ComponentID][]kernel.ComponentID),
	}
	if mode == Eager {
		k.AddRebootHook(s.eagerRebootHook)
	}
	return s, nil
}

// Kernel returns the simulated machine.
func (s *System) Kernel() *kernel.Kernel { return s.kern }

// PlaceServer pins a registered server component (or the storage
// component) to a home core: every invocation from a thread on another
// core becomes a cross-core synchronous invocation (the caller migrates
// over and back), and µ-reboots re-initialize the component on its home
// core. A negative core clears the placement, restoring execute-on-
// caller's-core behavior.
func (s *System) PlaceServer(comp kernel.ComponentID, core int) error {
	if _, ok := s.servers[comp]; !ok && comp != s.storeComp {
		return fmt.Errorf("core: PlaceServer: %d is not a registered server", comp)
	}
	return s.kern.SetComponentCore(comp, core)
}

// Cbufs returns the zero-copy buffer manager.
func (s *System) Cbufs() *cbuf.Manager { return s.cm }

// Store returns the storage component's state (reflection access).
func (s *System) Store() *storage.Store { return s.store }

// StorageComp returns the storage component's ID for kernel-mediated access.
func (s *System) StorageComp() kernel.ComponentID { return s.storeComp }

// Mode returns the system's recovery mode.
func (s *System) Mode() RecoveryMode { return s.mode }

// SetTracer installs (or, with nil, removes) the recovery-observability
// recorder on the underlying kernel. The kernel records invocation,
// fault, reboot, reflection, and upcall events; the recovery runtime
// adds per-mechanism spans (R0/T0/T1/D0/D1/G0/G1/U0) around descriptor
// recovery, so a Snapshot of the recorder yields the per-mechanism
// recovery-latency breakdown of the evaluation.
// The storage replication layer shares the recorder: per-replica
// write/checkpoint counters and quorum/rebuild events land in the same
// snapshot.
func (s *System) SetTracer(r *obs.Recorder) {
	s.kern.SetTracer(r)
	if r == nil {
		s.store.SetObserver(nil)
		return
	}
	s.store.SetObserver(r)
}

// Tracer returns the installed recovery-observability recorder, or nil.
func (s *System) Tracer() *obs.Recorder { return s.kern.Tracer() }

// Policy returns the system-wide recovery policy.
func (s *System) Policy() RecoveryPolicy { return s.policy }

// SetRecoveryPolicy replaces the system-wide recovery policy. Zeroed limit
// fields take the defaults (see RecoveryPolicy). Call before threads run;
// the simulator is single-core, so there is no racing stub call.
func (s *System) SetRecoveryPolicy(p RecoveryPolicy) {
	s.policy = p.normalized()
	s.polGen++ // invalidate every stub's cached effective policy
}

// DeclareDependency records that server `from` depends on server `to`: a
// fault in `from` that survives plain retries escalates to a µ-reboot of
// `to` (and transitively of `to`'s own dependencies, leaves first). Both
// must be registered servers — except `to`, which may also be the storage
// component.
func (s *System) DeclareDependency(from, to kernel.ComponentID) error {
	if _, ok := s.servers[from]; !ok {
		return fmt.Errorf("core: DeclareDependency: %d is not a registered server", from)
	}
	if _, ok := s.servers[to]; !ok && to != s.storeComp {
		return fmt.Errorf("core: DeclareDependency: %d is not a registered server", to)
	}
	for _, d := range s.deps[from] {
		if d == to {
			return nil
		}
	}
	s.deps[from] = append(s.deps[from], to)
	return nil
}

// Dependencies returns the declared direct dependencies of a server.
func (s *System) Dependencies(comp kernel.ComponentID) []kernel.ComponentID {
	out := make([]kernel.ComponentID, len(s.deps[comp]))
	copy(out, s.deps[comp])
	return out
}

// cascadeReboot is the second rung of the escalation ladder: µ-reboot the
// transitive dependencies of server (leaves first, each at most once, cycles
// tolerated) and then force the server itself through a fresh µ-reboot, so
// the next redo runs against a server whose whole supporting state has been
// rebuilt from clean images.
func (s *System) cascadeReboot(t *kernel.Thread, server kernel.ComponentID) error {
	visited := map[kernel.ComponentID]bool{server: true}
	var walk func(id kernel.ComponentID) error
	walk = func(id kernel.ComponentID) error {
		for _, dep := range s.deps[id] {
			if visited[dep] {
				continue
			}
			visited[dep] = true
			if err := walk(dep); err != nil {
				return err
			}
			if _, err := s.kern.Reboot(t, dep); err != nil {
				return fmt.Errorf("core: cascading reboot of dependency %d: %w", dep, err)
			}
		}
		return nil
	}
	if err := walk(server); err != nil {
		return err
	}
	if _, err := s.kern.Reboot(t, server); err != nil {
		return fmt.Errorf("core: cascading reboot of server %d: %w", server, err)
	}
	return nil
}

// invokeStorage invokes the storage component with a bounded
// reboot-and-redo loop: a crash of the storage instance (KindStorageCrash
// or any fail-stop fault in it) is recovered by µ-rebooting it — its data
// survives the reboot (mechanism G1) — and retrying the operation. The
// retry budget is the system policy's total attempt budget; non-fault
// errors and faults in other components pass through.
func (s *System) invokeStorage(t *kernel.Thread, fn string, args ...kernel.Word) (kernel.Word, error) {
	for attempt := 0; ; attempt++ {
		ret, err := s.kern.Invoke(t, s.storeComp, fn, args...)
		if err == nil {
			return ret, nil
		}
		flt, isFault := kernel.AsFault(err)
		if !isFault || flt.Comp != s.storeComp || attempt >= s.policy.MaxAttempts() {
			return ret, err
		}
		if flt.Transient {
			continue // retransmission: the instance is fine
		}
		if _, rerr := s.kern.EnsureRebooted(t, s.storeComp, flt.Epoch); rerr != nil {
			return ret, fmt.Errorf("core: µ-reboot of storage: %w", rerr)
		}
	}
}

// RegisterServer boots a recoverable server component: it validates the
// interface specification, compiles the state machine, wraps the component's
// clean image with the SuperGlue server-side stub, and registers the result
// with the kernel. The factory is the µ-reboot image: every reboot
// constructs a fresh instance (re-wrapped in a fresh stub).
//
// Validation and compilation happen once per *Spec and are shared by
// every System that registers it, so spec must not be mutated after
// its first registration.
func (s *System) RegisterServer(spec *Spec, factory func() kernel.Service) (kernel.ComponentID, error) {
	c, err := compileSpec(spec)
	if err != nil {
		return 0, err
	}
	if _, dup := s.byName[spec.Service]; dup {
		return 0, fmt.Errorf("core: server %q already registered", spec.Service)
	}
	s.nextClass++
	entry := &serverEntry{compiledSpec: c, class: s.nextClass}
	comp, err := s.kern.Register(func() kernel.Service {
		return newServerStub(s, entry, factory())
	})
	if err != nil {
		return 0, err
	}
	entry.comp = comp
	s.servers[comp] = entry
	s.byName[spec.Service] = entry
	// A server whose descriptors are globally addressable (G_dr) or whose
	// resources carry redundantly stored data (D_r) reads the storage
	// component on recovery: declare that dependency so the cascading
	// rung of the escalation ladder rebuilds storage's component instance
	// too. (The store's data itself survives reboots — it is the
	// redundancy, mechanism G1.)
	if spec.DescIsGlobal || spec.RescHasData {
		s.deps[comp] = append(s.deps[comp], s.storeComp)
	}
	return comp, nil
}

// ServerSpec returns the spec of a registered server.
func (s *System) ServerSpec(comp kernel.ComponentID) (*Spec, bool) {
	e, ok := s.servers[comp]
	if !ok {
		return nil, false
	}
	return e.spec, true
}

// ServerByName returns the component ID of a registered server.
func (s *System) ServerByName(service string) (kernel.ComponentID, bool) {
	e, ok := s.byName[service]
	if !ok {
		return 0, false
	}
	return e.comp, true
}

// Class returns the storage class assigned to a server (G0/G1 namespace).
func (s *System) Class(comp kernel.ComponentID) (storage.Class, bool) {
	e, ok := s.servers[comp]
	if !ok {
		return 0, false
	}
	return e.class, true
}

// eagerRebootHook recovers every descriptor of every client of the rebooted
// component, roots first (Eager mode).
func (s *System) eagerRebootHook(t *kernel.Thread, comp kernel.ComponentID, epoch uint64) {
	entry, ok := s.servers[comp]
	if !ok || t == nil {
		return
	}
	for _, stub := range entry.stubs {
		for _, d := range stub.tracker.Live() {
			// recoverDesc orders parents first (D1); errors here surface
			// again on demand, when the failing descriptor is accessed.
			// Spans recorded here classify as eager recovery (T0).
			_ = stub.recoverDescTimed(t, d, obs.MechT0)
		}
	}
}

// UpcallHandler is an application-level upcall entry point in a client.
type UpcallHandler func(t *kernel.Thread, args []kernel.Word) (kernel.Word, error)

// Client is a client protection domain: an application (or mid-level
// service) component that holds stubs for the servers it invokes. Clients
// are where SuperGlue's descriptor tracking lives; they are not themselves
// µ-rebooted (application fault tolerance is out of scope, §II-E).
type Client struct {
	sys      *System
	comp     kernel.ComponentID
	name     string
	stubs    map[kernel.ComponentID]*ClientStub
	handlers map[string]UpcallHandler
}

var _ kernel.Service = (*Client)(nil)

// NewClient registers a client component.
func (s *System) NewClient(name string) (*Client, error) {
	c := &Client{
		sys:      s,
		name:     name,
		stubs:    make(map[kernel.ComponentID]*ClientStub),
		handlers: make(map[string]UpcallHandler),
	}
	comp, err := s.kern.Register(func() kernel.Service { return c })
	if err != nil {
		return nil, err
	}
	c.comp = comp
	s.clients = append(s.clients, c)
	return c, nil
}

// Name implements kernel.Service.
func (c *Client) Name() string { return c.name }

// Init implements kernel.Service.
func (c *Client) Init(bc *kernel.BootContext) error { return nil }

// ID returns the client's component ID.
func (c *Client) ID() kernel.ComponentID { return c.comp }

// System returns the owning system.
func (c *Client) System() *System { return c.sys }

// Handle registers an application-level upcall handler.
func (c *Client) Handle(fn string, h UpcallHandler) {
	c.handlers[fn] = h
}

// Stub returns (creating on first use) this client's stub for the given
// server. The stub is the client side of the interface: it interposes on
// every invocation, tracks descriptors, and drives recovery.
func (c *Client) Stub(server kernel.ComponentID) (*ClientStub, error) {
	if st, ok := c.stubs[server]; ok {
		return st, nil
	}
	entry, ok := c.sys.servers[server]
	if !ok {
		return nil, fmt.Errorf("core: component %d is not a registered SuperGlue server", server)
	}
	ref, err := c.sys.kern.Ref(server)
	if err != nil {
		return nil, err
	}
	st := &ClientStub{
		sys:     c.sys,
		client:  c,
		server:  server,
		entry:   entry,
		tracker: newTracker(),
		ref:     ref,
		xcAlloc: c.sys.kern.NumCores() > 1,
	}
	st.calls = make([]BoundCall, len(entry.fns))
	for i, info := range entry.fns {
		st.calls[i] = BoundCall{stub: st, info: info}
	}
	st.rebuildPolicy()
	c.stubs[server] = st
	entry.stubs = append(entry.stubs, st)
	return st, nil
}

// Dispatch implements kernel.Service: it routes recovery upcalls to the
// owning stub and anything else to application handlers.
func (c *Client) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	switch fn {
	case FnRecover:
		if len(args) < 3 {
			return 0, fmt.Errorf("core: %s needs 3 args, got %d", fn, len(args))
		}
		stub, ok := c.stubs[kernel.ComponentID(args[0])]
		if !ok {
			return 0, fmt.Errorf("core: %s: no stub for server %d in client %s", fn, args[0], c.name)
		}
		return stub.handleRecoverUpcall(t, DescKey{NS: args[1], ID: args[2]})
	case FnRecreate:
		if len(args) < 2 {
			return 0, fmt.Errorf("core: %s needs 2 args, got %d", fn, len(args))
		}
		stub, ok := c.stubs[kernel.ComponentID(args[0])]
		if !ok {
			return 0, fmt.Errorf("core: %s: no stub for server %d in client %s", fn, args[0], c.name)
		}
		return stub.handleRecreateUpcall(t, args[1])
	case FnRebuilt:
		if h, ok := c.handlers[fn]; ok {
			return h(t, args)
		}
		return 0, nil // transparent to client execution by default
	default:
		if h, ok := c.handlers[fn]; ok {
			return h(t, args)
		}
		return 0, kernel.DispatchError(c.name, fn)
	}
}
