// Package obs is the recovery-observability layer of the SuperGlue
// reproduction: a low-overhead structured trace recorder plus
// per-component / per-recovery-mechanism metrics.
//
// The paper evaluates SuperGlue by measuring fault-recovery cost per
// service (Table II, Fig. 6–9) but treats each recovery as a black box.
// This package makes the detection→recovery pipeline measurable
// end-to-end: the kernel, the C³ runtime, and sgc-generated stubs emit
// typed events (Invoke, FaultDetected, Reboot, RebuildWalk, Reflect,
// Upcall, Degraded) into a fixed-capacity ring buffer, and the recorder
// aggregates counters and virtual-time latency histograms keyed by
// component and by recovery mechanism (R0/T0/T1/D0/D1/G0/G1/U0,
// the paper's §III-B taxonomy).
//
// Design constraints (see docs/OBSERVABILITY.md):
//
//   - No dependency on the kernel package: the kernel imports obs, so
//     obs identifies components and threads with plain int32 and
//     virtual time with plain int64 (microseconds).
//   - Cost proportional to use: the ring grows on demand up to its
//     capacity (a recorder that sees k events holds about k slots, not
//     DefaultCapacity), then overwrites in place. Event payloads are
//     value types and per-component slots are reused, so once the ring
//     is full recording does not allocate after the first event per
//     component.
//     The PR-2 alloc-guard tests additionally pin the *disabled* path
//     (a nil recorder) at zero allocations and zero overhead beyond one
//     atomic load and a predictable branch.
//   - Nil-safe: every method on *Recorder is safe on a nil receiver, so
//     instrumentation sites never need a second guard.
package obs

import (
	"fmt"
	"math/bits"
	"sync"

	"superglue/internal/fault"
)

// EventKind identifies the type of a trace event.
type EventKind uint8

// The event taxonomy. Every fault-tolerance-relevant edge in the system
// maps to exactly one kind; docs/OBSERVABILITY.md gives the full
// mapping to the paper's model.
const (
	// EvInvoke is one synchronous component invocation (thread
	// migration into a server).
	EvInvoke EventKind = iota + 1
	// EvFaultDetected marks the instant a component enters the failed
	// state: a SWIFI-activated fail-stop fault, or a watchdog verdict
	// (Fn "watchdog:hang" / "watchdog:deadlock").
	EvFaultDetected
	// EvReboot is a completed µ-reboot: fresh instance installed, epoch
	// bumped, Init upcall and eager-recovery hooks run. Detail carries
	// the virtual-time cost and Steps the invocation-step cost.
	EvReboot
	// EvRebuildWalk is one interface-driven recovery span: a descriptor
	// state-machine walk replay or another recovery-mechanism firing.
	// Mech says which mechanism; Detail/Steps carry its cost.
	EvRebuildWalk
	// EvReflect is a kernel reflection pass (ReflectThreads): recovery
	// code rebuilding scheduler state from authoritative kernel thread
	// objects. Detail carries the number of threads reflected on.
	EvReflect
	// EvUpcall is a recovery upcall into a client component (the U0
	// direction, e.g. sg.recover / sg.recreate / sg.rebuilt).
	EvUpcall
	// EvDegraded marks the recovery escalation ladder giving up on a
	// component and returning a typed DegradedError to the application.
	EvDegraded
	// EvMigrate is one thread migration between simulated cores: a
	// cross-core invocation entry (Fn "xcall"), its return, or an explicit
	// migration (Fn "migrate"). FromCore/ToCore carry the edge and Detail
	// the virtual-time migration latency (clock synchronization + migration
	// charge + destination queueing delay).
	EvMigrate
	// EvStorage is a storage-replication event: a replica µ-reboot
	// (checkpoint + WAL replay, Fn "storage:rebuild" or
	// "storage:anti-entropy"), a divergent replica caught and repaired by a
	// quorum read (Fn "storage:repair"), or quorum loss (Fn
	// "storage:quorum-lost"). Replica carries the replica index and Detail
	// the number of WAL records replayed (rebuilds only).
	EvStorage

	numKinds = int(EvStorage) + 1
)

// String returns the canonical event-kind name used by the exporters.
func (k EventKind) String() string {
	switch k {
	case EvInvoke:
		return "Invoke"
	case EvFaultDetected:
		return "FaultDetected"
	case EvReboot:
		return "Reboot"
	case EvRebuildWalk:
		return "RebuildWalk"
	case EvReflect:
		return "Reflect"
	case EvUpcall:
		return "Upcall"
	case EvDegraded:
		return "Degraded"
	case EvMigrate:
		return "Migrate"
	case EvStorage:
		return "Storage"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// MarshalJSON encodes the kind as its canonical name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Mechanism identifies one of the paper's recovery mechanisms (§III-B).
// It deliberately mirrors core.Mechanism without importing it: obs sits
// below every other package.
type Mechanism uint8

// The recovery-mechanism taxonomy of the paper, plus MechNone for
// events that are not tied to a mechanism.
const (
	// MechNone marks events not attributed to a recovery mechanism.
	MechNone Mechanism = iota
	// MechR0 is descriptor rebuild by replaying the recorded shortest
	// recovery walk through the descriptor state machine.
	MechR0
	// MechT0 is eager recovery: descriptors rebuilt immediately at
	// µ-reboot time (reboot hooks and eager thread diversion).
	MechT0
	// MechT1 is lazy (on-demand) recovery: a descriptor rebuilt when
	// the next invocation that needs it observes the fault.
	MechT1
	// MechD0 is subtree recovery: a parent descriptor recovering its
	// children (desc_close_children relationships).
	MechD0
	// MechD1 is parent recovery: rebuilding a descriptor's parent
	// before the descriptor itself.
	MechD1
	// MechG0 is global-descriptor recovery: resolving or recreating a
	// stale server-side ID through the redundant-storage maps (EINVAL
	// → lookup creator → recreate → remap).
	MechG0
	// MechG1 is redundant data: maintaining and restoring descriptor /
	// resource payload copies (client-side replay data, storage-backed
	// resource contents).
	MechG1
	// MechU0 is the recovery upcall mechanism: the runtime calling
	// into client components (sg.recover / sg.recreate / sg.rebuilt).
	MechU0
)

// NumMechanisms is the size of per-mechanism stat arrays (MechR0…MechU0
// plus the MechNone slot at index 0).
const NumMechanisms = int(MechU0) + 1

// String returns the paper's name for the mechanism (R0, T0, …, U0).
func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "none"
	case MechR0:
		return "R0"
	case MechT0:
		return "T0"
	case MechT1:
		return "T1"
	case MechD0:
		return "D0"
	case MechD1:
		return "D1"
	case MechG0:
		return "G0"
	case MechG1:
		return "G1"
	case MechU0:
		return "U0"
	default:
		return fmt.Sprintf("Mechanism(%d)", uint8(m))
	}
}

// MarshalJSON encodes the mechanism as its paper name.
func (m Mechanism) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// Mechanisms lists the eight real mechanisms in the paper's order, for
// exporters and reports that want a stable iteration order.
func Mechanisms() []Mechanism {
	return []Mechanism{MechR0, MechT0, MechT1, MechD0, MechD1, MechG0, MechG1, MechU0}
}

// Event is one trace record. Events are value types sized for the ring
// buffer; the only pointer-carrying field is Fn, which aliases static
// interface-function name strings (no per-event allocation).
type Event struct {
	// Seq is the global event sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Time is the virtual time (µs) at which the event was recorded.
	Time int64 `json:"vtime_us"`
	// Kind is the event type.
	Kind EventKind `json:"kind"`
	// Mech is the recovery mechanism, for EvRebuildWalk (MechNone
	// otherwise).
	Mech Mechanism `json:"mechanism,omitempty"`
	// Comp is the component the event concerns (0 = none/system-wide).
	Comp int32 `json:"comp"`
	// Thread is the simulated thread on which the event occurred
	// (0 = none, e.g. a fault injected from outside any thread).
	Thread int32 `json:"thread,omitempty"`
	// Gen is the recovery generation: the component epoch the event
	// observed (for EvReboot, the new epoch after the bump).
	Gen uint64 `json:"gen"`
	// Fn is the interface function involved, if any.
	Fn string `json:"fn,omitempty"`
	// Detail is a kind-specific magnitude: virtual-time cost (µs) for
	// EvReboot and EvRebuildWalk, thread count for EvReflect.
	Detail int64 `json:"detail,omitempty"`
	// Steps is the invocation-step cost (completed kernel invocations
	// during the span) for EvReboot and EvRebuildWalk.
	Steps uint64 `json:"steps,omitempty"`
	// FaultKind classifies an EvFaultDetected event in the system fault
	// taxonomy (fault.KindUnknown for unclassified detection sites).
	FaultKind fault.Kind `json:"fault_kind,omitempty"`
	// FaultSev grades an EvFaultDetected event (fault.SevUnknown when
	// ungraded).
	FaultSev fault.Severity `json:"fault_severity,omitempty"`
	// FromCore and ToCore are the cores of an EvMigrate edge.
	FromCore int32 `json:"from_core,omitempty"`
	ToCore   int32 `json:"to_core,omitempty"`
	// Replica is the storage replica index of an EvStorage event.
	Replica int32 `json:"replica,omitempty"`
}

// XCallFn is the Fn marker of an EvMigrate event that entered a core to
// execute a cross-core invocation; MigrateFn marks every other migration
// (invocation returns and explicit migrations). Static strings so the
// recording path stays allocation-free.
const (
	XCallFn   = "xcall"
	MigrateFn = "migrate"
)

// Fn markers of EvStorage events: a replica rebuilt from its own
// checkpoint + WAL, a replica repaired by anti-entropy copy from a peer,
// a divergent replica caught and repaired by a quorum read, and quorum
// loss. Static strings so the recording path stays allocation-free.
const (
	StorageRebuildFn     = "storage:rebuild"
	StorageAntiEntropyFn = "storage:anti-entropy"
	StorageRepairFn      = "storage:repair"
	StorageQuorumLostFn  = "storage:quorum-lost"
)

// NumBuckets is the number of virtual-time histogram buckets per
// mechanism. Bucket 0 counts zero-latency spans; bucket i (0 < i <
// NumBuckets-1) counts spans with latency in [2^(i-1), 2^i) µs; the
// last bucket is unbounded.
const NumBuckets = 16

// bucketOf maps a virtual-time latency (µs) to its histogram bucket.
func bucketOf(vt int64) int {
	if vt <= 0 {
		return 0
	}
	b := bits.Len64(uint64(vt))
	if b > NumBuckets-1 {
		b = NumBuckets - 1
	}
	return b
}

// BucketLabel returns the inclusive upper bound of histogram bucket i
// as a Prometheus-style "le" label: "0", "1", "3", "7", …, "+Inf".
func BucketLabel(i int) string {
	if i <= 0 {
		return "0"
	}
	if i >= NumBuckets-1 {
		return "+Inf"
	}
	return fmt.Sprintf("%d", (int64(1)<<uint(i))-1)
}

// MechStat aggregates one (component, mechanism) cell: how often the
// mechanism fired, its total/max virtual-time cost, its total
// invocation-step cost, and the latency histogram.
type MechStat struct {
	// Count is the number of spans recorded for this mechanism.
	Count uint64 `json:"count"`
	// TotalVT is the summed virtual-time cost (µs) across spans.
	TotalVT int64 `json:"total_vtime_us"`
	// MaxVT is the largest single-span virtual-time cost (µs).
	MaxVT int64 `json:"max_vtime_us"`
	// TotalSteps is the summed invocation-step cost across spans.
	TotalSteps uint64 `json:"total_steps"`
	// Hist is the latency histogram (see NumBuckets for bucket bounds).
	Hist [NumBuckets]uint64 `json:"hist"`
}

// add folds one span into the cell.
func (s *MechStat) add(vt int64, steps uint64) {
	s.Count++
	s.TotalVT += vt
	if vt > s.MaxVT {
		s.MaxVT = vt
	}
	s.TotalSteps += steps
	s.Hist[bucketOf(vt)]++
}

// merge folds another cell into this one (used for the all-components
// aggregate in Snapshot).
func (s *MechStat) merge(o MechStat) {
	s.Count += o.Count
	s.TotalVT += o.TotalVT
	if o.MaxVT > s.MaxVT {
		s.MaxVT = o.MaxVT
	}
	s.TotalSteps += o.TotalSteps
	for i := range s.Hist {
		s.Hist[i] += o.Hist[i]
	}
}

// compStats is the per-component aggregate (slot index = component ID).
type compStats struct {
	seen       bool
	name       string
	invokes    uint64
	upcalls    uint64
	faults     uint64
	reboots    uint64
	degraded   uint64
	mech       [NumMechanisms]MechStat
	faultKinds [fault.NumKinds]uint64
}

// DefaultCapacity is the ring-buffer capacity used by NewRecorder.
const DefaultCapacity = 4096

// Recorder is the trace sink: a fixed-capacity ring buffer of Events
// plus per-component/per-mechanism aggregates. A single Recorder is
// shared by the kernel and the runtime; methods are safe for concurrent
// use and safe on a nil receiver (a nil *Recorder records nothing).
//
// The recorder is intentionally mutex-guarded rather than lock-free:
// tracing is off by default, the enabled path is not the benchmark
// configuration, and a single short critical section keeps the ring and
// the aggregates consistent with each other.
type Recorder struct {
	mu    sync.Mutex
	ring  []Event // grown on demand up to size, then overwritten in place
	size  int     // ring capacity
	seq   uint64  // total events ever recorded
	kinds [numKinds]uint64
	comps []compStats // index = component ID (slot 0 = "system")

	// Per-fault-taxonomy counters over EvFaultDetected events: how many
	// faults of each fault.Kind and fault.Severity were detected.
	faultKinds [fault.NumKinds]uint64
	faultSevs  [fault.NumSeverities]uint64

	// Per-core migration counters (slot index = core number) and the
	// cross-core invocation latency histogram over EvMigrate events.
	cores    []coreObs
	crossLat MechStat

	// Per-storage-replica counters (slot index = replica number), the
	// replica-rebuild latency histogram (latency dimension = WAL records
	// replayed), and the store-wide quorum counters.
	storageReps       []storageRepObs
	storRebuildLat    MechStat
	storQuorumRepairs uint64
	storQuorumLost    uint64
}

// storageRepObs is the per-storage-replica aggregate of write/checkpoint
// counters and EvStorage events.
type storageRepObs struct {
	writes      uint64 // WAL records appended on the replica
	checkpoints uint64 // checkpoints captured on the replica
	rebuilds    uint64 // replica µ-reboots (local replay or anti-entropy)
	repairs     uint64 // divergence repairs applied by quorum reads
}

// storageSlot returns the per-replica aggregate, growing the table on
// first sight of a replica. Caller holds r.mu.
func (r *Recorder) storageSlot(rep int32) *storageRepObs {
	i := int(rep)
	if i < 0 {
		i = 0
	}
	for i >= len(r.storageReps) {
		r.storageReps = append(r.storageReps, storageRepObs{})
	}
	return &r.storageReps[i]
}

// coreObs is the per-core aggregate of EvMigrate events.
type coreObs struct {
	in    uint64 // migrations onto the core
	out   uint64 // migrations off the core
	xcall uint64 // migrations in that were cross-core invocation entries
}

// coreSlot returns the per-core aggregate, growing the table on first
// sight of a core. Caller holds r.mu.
func (r *Recorder) coreSlot(core int32) *coreObs {
	i := int(core)
	if i < 0 {
		i = 0
	}
	for i >= len(r.cores) {
		r.cores = append(r.cores, coreObs{})
	}
	return &r.cores[i]
}

// NewRecorder returns a Recorder with the given ring capacity
// (DefaultCapacity if capacity <= 0). The ring holds the most recent
// events; aggregates cover every event since construction or Reset. No
// ring storage is allocated up front: the ring grows as events arrive,
// so a recorder that sees a few dozen events costs a few dozen slots.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{size: capacity}
}

// minCompSlots is the per-component table's first allocation: room for
// the handful of components a SWIFI trial machine registers.
const minCompSlots = 8

// slot returns the per-component aggregate for comp, growing the table
// on first sight of a component (the only allocating path).
func (r *Recorder) slot(comp int32) *compStats {
	i := int(comp)
	if i < 0 {
		i = 0
	}
	if i >= len(r.comps) {
		if i >= cap(r.comps) {
			grown := make([]compStats, len(r.comps), max(i+1, 2*cap(r.comps), minCompSlots))
			copy(grown, r.comps)
			r.comps = grown
		}
		r.comps = r.comps[:i+1]
	}
	s := &r.comps[i]
	s.seen = true
	return s
}

// SetComponentName associates a human-readable name with a component ID
// for snapshots and exporters.
func (r *Recorder) SetComponentName(comp int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slot(comp).name = name
	r.mu.Unlock()
}

// push appends ev to the ring (overwriting the oldest event once the
// ring holds size events) and bumps the kind counter. Caller holds r.mu.
func (r *Recorder) push(ev Event) {
	r.seq++
	ev.Seq = r.seq
	if len(r.ring) < r.size {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[int((r.seq-1)%uint64(r.size))] = ev
	}
	r.kinds[ev.Kind]++
}

// Record appends an arbitrary event and folds it into the aggregates.
// The typed helpers (RecordInvoke, RecordRecovery, …) are preferred at
// instrumentation sites; Record exists for tests and external tooling.
func (r *Recorder) Record(ev Event) {
	if r == nil || ev.Kind == 0 || int(ev.Kind) >= numKinds {
		return
	}
	r.mu.Lock()
	r.push(ev)
	s := r.slot(ev.Comp)
	switch ev.Kind {
	case EvInvoke:
		s.invokes++
	case EvUpcall:
		s.upcalls++
	case EvFaultDetected:
		s.faults++
		if int(ev.FaultKind) < fault.NumKinds {
			s.faultKinds[ev.FaultKind]++
			r.faultKinds[ev.FaultKind]++
		}
		if int(ev.FaultSev) < fault.NumSeverities {
			r.faultSevs[ev.FaultSev]++
		}
	case EvReboot:
		s.reboots++
	case EvDegraded:
		s.degraded++
	case EvRebuildWalk:
		if ev.Mech != MechNone && int(ev.Mech) < NumMechanisms {
			s.mech[ev.Mech].add(ev.Detail, ev.Steps)
		}
	case EvMigrate:
		r.coreSlot(ev.FromCore).out++
		to := r.coreSlot(ev.ToCore)
		to.in++
		if ev.Fn == XCallFn {
			to.xcall++
			r.crossLat.add(ev.Detail, 0)
		}
	case EvStorage:
		rs := r.storageSlot(ev.Replica)
		switch ev.Fn {
		case StorageRebuildFn, StorageAntiEntropyFn:
			rs.rebuilds++
			r.storRebuildLat.add(ev.Detail, 0)
		case StorageRepairFn:
			rs.repairs++
			r.storQuorumRepairs++
		case StorageQuorumLostFn:
			r.storQuorumLost++
		}
	}
	r.mu.Unlock()
}

// RecordStorageWrite counts one WAL record appended on a storage replica.
// Writes are high-frequency, so they only bump a counter — no ring event.
func (r *Recorder) RecordStorageWrite(replica int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.storageSlot(int32(replica)).writes++
	r.mu.Unlock()
}

// RecordStorageCheckpoint counts one checkpoint captured on a storage
// replica (counter only, like writes).
func (r *Recorder) RecordStorageCheckpoint(replica int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.storageSlot(int32(replica)).checkpoints++
	r.mu.Unlock()
}

// RecordStorageRebuild records a storage-replica µ-reboot: replayed is the
// number of WAL records re-applied (the latency dimension of the rebuild
// histogram); antiEntropy marks a repair by full copy from a quorum peer
// instead of local checkpoint+log replay.
func (r *Recorder) RecordStorageRebuild(replica, replayed int, antiEntropy bool) {
	if r == nil {
		return
	}
	fn := StorageRebuildFn
	if antiEntropy {
		fn = StorageAntiEntropyFn
	}
	r.Record(Event{Kind: EvStorage, Fn: fn, Replica: int32(replica), Detail: int64(replayed)})
}

// RecordStorageRepair records a divergent storage replica caught and
// repaired by a quorum read. The context string describes the read; it is
// kept out of the event to stay allocation-free (the store's typed fault
// log carries it).
func (r *Recorder) RecordStorageRepair(replica int, context string) {
	if r == nil {
		return
	}
	_ = context
	r.Record(Event{Kind: EvStorage, Fn: StorageRepairFn, Replica: int32(replica)})
}

// RecordStorageQuorumLost records a storage read or rebuild that found no
// majority of agreeing, uncorrupted replicas.
func (r *Recorder) RecordStorageQuorumLost(context string) {
	if r == nil {
		return
	}
	_ = context
	r.Record(Event{Kind: EvStorage, Fn: StorageQuorumLostFn})
}

// RecordMigration records one thread migration between cores: a cross-core
// invocation entry when xcall is set (folded into the cross-core latency
// histogram), an invocation return or explicit migration otherwise. vt is
// the destination core's clock at dispatch and latency the virtual time
// between leaving the source core and being dispatched on the destination.
func (r *Recorder) RecordMigration(from, to, thread int32, vt, latency int64, xcall bool) {
	if r == nil {
		return
	}
	fn := MigrateFn
	if xcall {
		fn = XCallFn
	}
	r.Record(Event{Kind: EvMigrate, Thread: thread, Fn: fn, Time: vt, Detail: latency,
		FromCore: from, ToCore: to})
}

// RecordInvoke records one component invocation.
func (r *Recorder) RecordInvoke(comp, thread int32, fn string, now int64, gen uint64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvInvoke, Comp: comp, Thread: thread, Fn: fn, Time: now, Gen: gen})
}

// RecordUpcall records a recovery upcall into a client component (U0).
// The upcall also surfaces as a U0 mechanism span so per-mechanism
// accounting covers the upcall direction.
func (r *Recorder) RecordUpcall(comp, thread int32, fn string, now int64, gen uint64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvUpcall, Comp: comp, Thread: thread, Fn: fn, Time: now, Gen: gen})
	r.Record(Event{Kind: EvRebuildWalk, Mech: MechU0, Comp: comp, Thread: thread, Fn: fn, Time: now, Gen: gen})
}

// RecordFault records the detection instant of a component fault with its
// taxonomy classification (fault.KindUnknown / fault.SevUnknown for
// unclassified detection sites).
func (r *Recorder) RecordFault(comp, thread int32, fn string, now int64, gen uint64, kind fault.Kind, sev fault.Severity) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvFaultDetected, Comp: comp, Thread: thread, Fn: fn, Time: now, Gen: gen,
		FaultKind: kind, FaultSev: sev})
}

// RecordReboot records a completed µ-reboot with its virtual-time and
// invocation-step cost. gen is the component's new epoch.
func (r *Recorder) RecordReboot(comp, thread int32, now int64, gen uint64, vt int64, steps uint64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvReboot, Comp: comp, Thread: thread, Time: now, Gen: gen, Detail: vt, Steps: steps})
}

// RecordRecovery records one recovery-mechanism span (EvRebuildWalk):
// mechanism mech fired for component comp, costing vt µs of virtual
// time and steps kernel invocations.
func (r *Recorder) RecordRecovery(mech Mechanism, comp, thread int32, fn string, now int64, gen uint64, vt int64, steps uint64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvRebuildWalk, Mech: mech, Comp: comp, Thread: thread, Fn: fn, Time: now, Gen: gen, Detail: vt, Steps: steps})
}

// RecordReflect records a kernel reflection pass over n threads.
func (r *Recorder) RecordReflect(now int64, n int) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvReflect, Time: now, Detail: int64(n)})
}

// RecordDegraded records the escalation ladder declaring a component
// degraded (the typed-error graceful-degradation outcome).
func (r *Recorder) RecordDegraded(comp, thread int32, fn string, now int64, gen uint64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: EvDegraded, Comp: comp, Thread: thread, Fn: fn, Time: now, Gen: gen})
}

// TotalEvents returns the number of events recorded since construction
// or Reset (including events already overwritten in the ring).
func (r *Recorder) TotalEvents() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Reset clears the ring and all aggregates, keeping component names and
// the ring storage grown so far. SWIFI campaigns call it between trials
// when they only want per-trial deltas.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring = r.ring[:0]
	r.seq = 0
	r.kinds = [numKinds]uint64{}
	r.faultKinds = [fault.NumKinds]uint64{}
	r.faultSevs = [fault.NumSeverities]uint64{}
	for i := range r.cores {
		r.cores[i] = coreObs{}
	}
	r.crossLat = MechStat{}
	for i := range r.storageReps {
		r.storageReps[i] = storageRepObs{}
	}
	r.storRebuildLat = MechStat{}
	r.storQuorumRepairs = 0
	r.storQuorumLost = 0
	for i := range r.comps {
		r.comps[i] = compStats{name: r.comps[i].name, seen: r.comps[i].seen}
	}
	r.mu.Unlock()
}
