package obs

import (
	"encoding/json"
	"io"

	"superglue/internal/fault"
)

// MechanismSnapshot is one mechanism's aggregate in a Snapshot, with
// the mechanism name resolved for serialization.
type MechanismSnapshot struct {
	// Mechanism is the paper name (R0…U0).
	Mechanism string `json:"mechanism"`
	// MechStat is the aggregate cell (count, vtime totals, histogram).
	MechStat
}

// ComponentSnapshot is one component's aggregate in a Snapshot.
type ComponentSnapshot struct {
	// ID is the kernel component ID.
	ID int32 `json:"id"`
	// Name is the component name, if registered via SetComponentName.
	Name string `json:"name,omitempty"`
	// Invokes counts invocations delivered to the component.
	Invokes uint64 `json:"invokes"`
	// Upcalls counts recovery upcalls delivered to the component.
	Upcalls uint64 `json:"upcalls,omitempty"`
	// Faults counts fault-detection events for the component.
	Faults uint64 `json:"faults,omitempty"`
	// Reboots counts completed µ-reboots of the component.
	Reboots uint64 `json:"reboots,omitempty"`
	// Degraded counts escalation-ladder degradations of the component.
	Degraded uint64 `json:"degraded,omitempty"`
	// Mechanisms holds the per-mechanism cells that fired for the
	// component, in the paper's R0…U0 order (empty cells omitted).
	Mechanisms []MechanismSnapshot `json:"mechanisms,omitempty"`
	// FaultKinds maps fault-taxonomy kind name to the number of detected
	// faults of that kind attributed to the component (zero cells
	// omitted).
	FaultKinds map[string]uint64 `json:"fault_kinds,omitempty"`
}

// CoreSnapshot is one simulated core's migration aggregate in a
// Snapshot (populated only on multi-core machines that migrated).
type CoreSnapshot struct {
	// Core is the simulated core number.
	Core int `json:"core"`
	// MigrationsIn counts thread migrations onto the core.
	MigrationsIn uint64 `json:"migrations_in"`
	// MigrationsOut counts thread migrations off the core.
	MigrationsOut uint64 `json:"migrations_out"`
	// CrossCoreInvocations counts migrations in that were cross-core
	// synchronous invocation entries (the xcall subset of MigrationsIn).
	CrossCoreInvocations uint64 `json:"cross_core_invocations"`
}

// StorageReplicaSnapshot is one storage replica's aggregate in a
// Snapshot (populated only on runs that touched replicated storage).
type StorageReplicaSnapshot struct {
	// Replica is the replica index.
	Replica int `json:"replica"`
	// Writes counts WAL records appended on the replica.
	Writes uint64 `json:"writes"`
	// Checkpoints counts descriptor-state checkpoints captured on the
	// replica (each truncates its WAL).
	Checkpoints uint64 `json:"checkpoints,omitempty"`
	// Rebuilds counts replica µ-reboots (local checkpoint+log replay or
	// anti-entropy copy from a peer).
	Rebuilds uint64 `json:"rebuilds,omitempty"`
	// Repairs counts divergence repairs applied to the replica by quorum
	// reads.
	Repairs uint64 `json:"repairs,omitempty"`
}

// StorageSnapshot is the storage-replication aggregate of a Snapshot.
type StorageSnapshot struct {
	// Replicas holds per-replica aggregates in replica order.
	Replicas []StorageReplicaSnapshot `json:"replicas"`
	// QuorumRepairs counts divergent replicas caught and repaired by
	// quorum reads.
	QuorumRepairs uint64 `json:"quorum_repairs,omitempty"`
	// QuorumLost counts reads and rebuilds that found no majority of
	// agreeing, uncorrupted replicas.
	QuorumLost uint64 `json:"quorum_lost,omitempty"`
	// RebuildLatency is the replica-rebuild histogram; its latency
	// dimension is the number of WAL records replayed per rebuild (nil
	// when no replica was rebuilt).
	RebuildLatency *MechStat `json:"rebuild_latency_wal_records,omitempty"`
}

// Snapshot is a consistent copy of everything the recorder knows:
// recent events (the ring contents, oldest first), event-kind totals,
// per-component aggregates, and the all-components per-mechanism
// aggregate that feeds the BENCH_superglue.json recovery breakdown.
type Snapshot struct {
	// TotalEvents counts every event ever recorded (including events
	// already overwritten in the ring).
	TotalEvents uint64 `json:"total_events"`
	// DroppedEvents counts events overwritten in the ring (TotalEvents
	// minus len(Events)).
	DroppedEvents uint64 `json:"dropped_events"`
	// BucketBounds are the inclusive upper bounds of the histogram
	// buckets, as Prometheus-style "le" labels ("0", "1", …, "+Inf").
	BucketBounds []string `json:"bucket_bounds_vtime_us"`
	// Kinds maps event-kind name to its total count.
	Kinds map[string]uint64 `json:"kinds"`
	// FaultKinds maps fault-taxonomy kind name (register-flip, hang, …,
	// plus "unknown" for unclassified detection sites) to the number of
	// detected faults of that kind (zero cells omitted).
	FaultKinds map[string]uint64 `json:"fault_kinds,omitempty"`
	// FaultSeverities maps severity name (warning…fatal, plus "unknown")
	// to the number of detected faults at that grade (zero cells
	// omitted).
	FaultSeverities map[string]uint64 `json:"fault_severities,omitempty"`
	// Mechanisms is the all-components per-mechanism aggregate, in the
	// paper's R0…U0 order (every mechanism present, even if zero — the
	// per-mechanism breakdown the acceptance experiments embed).
	Mechanisms []MechanismSnapshot `json:"mechanisms"`
	// Cores holds per-core migration aggregates in core order (present
	// only when the run migrated threads between simulated cores).
	Cores []CoreSnapshot `json:"cores,omitempty"`
	// CrossCoreLatency is the cross-core invocation latency histogram:
	// virtual time between a thread leaving its caller's core and being
	// dispatched on the server's home core (nil when no cross-core
	// invocations happened).
	CrossCoreLatency *MechStat `json:"cross_core_latency_vtime_us,omitempty"`
	// Storage holds the storage-replication aggregates (present only when
	// the run touched replicated storage).
	Storage *StorageSnapshot `json:"storage,omitempty"`
	// Components holds per-component aggregates in component-ID order.
	Components []ComponentSnapshot `json:"components"`
	// Events is the ring contents, oldest first.
	Events []Event `json:"events"`
}

// Snapshot returns a copy of the recorder state. It is safe on a nil
// receiver (returning an empty snapshot). Like every read of a
// Recorder, it runs inside the recorder's machine or after a handoff
// from it (see Recorder).
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{
		BucketBounds: bucketBounds(),
		Kinds:        map[string]uint64{},
	}
	var totals [NumMechanisms]MechStat
	if r != nil {
		snap.TotalEvents = r.seq
		if len(r.ring) > 0 {
			snap.Events = appendRing(make([]Event, 0, len(r.ring)), r.ring, r.size, r.seq)
		}
		snap.DroppedEvents = snap.TotalEvents - uint64(len(snap.Events))
		for kind := EventKind(1); int(kind) < numKinds; kind++ {
			if n := r.kinds[kind]; n > 0 {
				snap.Kinds[kind.String()] = n
			}
		}
		for fk := fault.Kind(0); int(fk) < fault.NumKinds; fk++ {
			if n := r.faultKinds[fk]; n > 0 {
				if snap.FaultKinds == nil {
					snap.FaultKinds = map[string]uint64{}
				}
				snap.FaultKinds[fk.String()] = n
			}
		}
		for fs := fault.Severity(0); int(fs) < fault.NumSeverities; fs++ {
			if n := r.faultSevs[fs]; n > 0 {
				if snap.FaultSeverities == nil {
					snap.FaultSeverities = map[string]uint64{}
				}
				snap.FaultSeverities[fs.String()] = n
			}
		}
		for core, cs := range r.cores {
			if cs.in == 0 && cs.out == 0 && cs.xcall == 0 {
				continue
			}
			snap.Cores = append(snap.Cores, CoreSnapshot{
				Core:                 core,
				MigrationsIn:         cs.in,
				MigrationsOut:        cs.out,
				CrossCoreInvocations: cs.xcall,
			})
		}
		if r.crossLat.Count > 0 {
			lat := r.crossLat
			snap.CrossCoreLatency = &lat
		}
		for rep, rs := range r.storageReps {
			if rs.writes == 0 && rs.checkpoints == 0 && rs.rebuilds == 0 && rs.repairs == 0 {
				continue
			}
			if snap.Storage == nil {
				snap.Storage = &StorageSnapshot{}
			}
			snap.Storage.Replicas = append(snap.Storage.Replicas, StorageReplicaSnapshot{
				Replica:     rep,
				Writes:      rs.writes,
				Checkpoints: rs.checkpoints,
				Rebuilds:    rs.rebuilds,
				Repairs:     rs.repairs,
			})
		}
		if r.storQuorumRepairs > 0 || r.storQuorumLost > 0 || r.storRebuildLat.Count > 0 {
			if snap.Storage == nil {
				snap.Storage = &StorageSnapshot{}
			}
			snap.Storage.QuorumRepairs = r.storQuorumRepairs
			snap.Storage.QuorumLost = r.storQuorumLost
			if r.storRebuildLat.Count > 0 {
				lat := r.storRebuildLat
				snap.Storage.RebuildLatency = &lat
			}
		}
		for id := range r.comps {
			s := &r.comps[id]
			if !s.seen {
				continue
			}
			cs := ComponentSnapshot{
				ID:       int32(id),
				Name:     s.name,
				Invokes:  s.invokes,
				Upcalls:  s.upcalls,
				Faults:   s.faults,
				Reboots:  s.reboots,
				Degraded: s.degraded,
			}
			for fk := fault.Kind(0); int(fk) < fault.NumKinds; fk++ {
				if n := s.faultKinds[fk]; n > 0 {
					if cs.FaultKinds == nil {
						cs.FaultKinds = map[string]uint64{}
					}
					cs.FaultKinds[fk.String()] = n
				}
			}
			for m := MechR0; m <= MechU0; m++ {
				cell := s.mech[m]
				totals[m].merge(cell)
				if cell.Count > 0 {
					cs.Mechanisms = append(cs.Mechanisms, MechanismSnapshot{Mechanism: m.String(), MechStat: cell})
				}
			}
			snap.Components = append(snap.Components, cs)
		}
	}
	snap.Mechanisms = make([]MechanismSnapshot, 0, NumMechanisms-1)
	for m := MechR0; m <= MechU0; m++ {
		snap.Mechanisms = append(snap.Mechanisms, MechanismSnapshot{Mechanism: m.String(), MechStat: totals[m]})
	}
	return snap
}

// appendRing appends the ring contents to dst in chronological order.
func appendRing(dst, ring []Event, size int, seq uint64) []Event {
	older, newer := ringHalves(ring, size, seq)
	return append(append(dst, older...), newer...)
}

// ringHalves splits a recorder's ring into its older and newer halves:
// the event with sequence number s lives at index (s-1) % size once the
// ring has wrapped, so the oldest survivor sits at seq % size.
func ringHalves(ring []Event, size int, seq uint64) (older, newer []Event) {
	if len(ring) < size || seq <= uint64(len(ring)) {
		return ring, nil
	}
	oldest := int(seq % uint64(size))
	return ring[oldest:], ring[:oldest]
}

// bucketLabels are the histogram "le" labels, built once.
var bucketLabels = func() [NumBuckets]string {
	var out [NumBuckets]string
	for i := range out {
		out[i] = BucketLabel(i)
	}
	return out
}()

// bucketBounds returns a fresh copy of the histogram "le" labels (callers
// own the slice, so no snapshot aliases another).
func bucketBounds() []string {
	return append([]string(nil), bucketLabels[:]...)
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the recorder and writes it as indented JSON; it
// is the one-call exporter used by cmd/swifi -trace-out.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
