package obs

import "sort"

// This file implements campaign-level snapshot aggregation: the SWIFI
// engine gives every trial its own private Recorder and folds the
// per-trial snapshots into one campaign snapshot in trial-index order,
// so a parallel campaign's aggregate is byte-identical to a sequential
// one (see DESIGN.md §9).

// Merge folds o into s: counters and event-kind totals are summed,
// per-mechanism cells (campaign-wide and per-component) are added
// bucket-wise, component tables are unioned by ID, and o's events are
// appended after s's — callers merge snapshots in trial order, so the
// combined stream is ordered by (trial, per-trial sequence). The
// appended events are renumbered with a contiguous global sequence
// continuing from the receiver's last sequence number (an empty
// receiver starts at 1), which makes Merge associative: merging two
// halves of a campaign equals merging all of its trials directly.
//
// Renumbering only the appended suffix (instead of the whole stream)
// keeps each merge O(|o|) and — because survivors of a Trim keep their
// global sequence numbers — makes it legal to Trim the receiver between
// merges: a rolling merge that trims after every fold produces the same
// events, with the same sequence numbers, as one batch merge followed
// by a single final Trim. The streaming SWIFI campaign engine depends
// on exactly this equivalence (DESIGN.md §14).
//
// Merge never aliases o's storage; o remains valid and unchanged. The
// zero Snapshot is a valid receiver (the empty merge base).
func (s *Snapshot) Merge(o Snapshot) {
	s.mergeAggregates(o)
	next := uint64(0)
	if n := len(s.Events); n > 0 {
		next = s.Events[n-1].Seq
	}
	base := len(s.Events)
	s.Events = append(s.Events, o.Events...)
	for i := base; i < len(s.Events); i++ {
		next++
		s.Events[i].Seq = next
	}
	s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
}

// Splice folds o into s when o is itself a rolling-merged stream — a
// campaign shard's final snapshot rather than one trial's. Aggregates
// merge exactly as in Merge, but o's events keep their own (contiguous,
// possibly trimmed-at-the-front) numbering, shifted after s's last
// sequence number. That is what makes the shard fold byte-identical to
// the single-process rolling merge: a shard that trimmed k of its own
// events leaves the same sequence gap the uninterrupted run would have
// left at that point, where Merge's contiguous renumbering would have
// closed it. s's last kept sequence equals the number of events ever
// appended to its stream (Trim preserves the tail), so the shift lands
// o's events at exactly their uninterrupted global positions.
func (s *Snapshot) Splice(o Snapshot) {
	s.mergeAggregates(o)
	shift := uint64(0)
	if n := len(s.Events); n > 0 {
		shift = s.Events[n-1].Seq
	}
	base := len(s.Events)
	s.Events = append(s.Events, o.Events...)
	for i := base; i < len(s.Events); i++ {
		s.Events[i].Seq += shift
	}
	s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
}

// mergeAggregates folds every non-event field of o into s: the shared
// half of Merge and Splice.
func (s *Snapshot) mergeAggregates(o Snapshot) {
	if s.BucketBounds == nil {
		s.BucketBounds = bucketBounds()
	}
	s.TotalEvents += o.TotalEvents
	if len(o.Kinds) > 0 && s.Kinds == nil {
		s.Kinds = make(map[string]uint64, len(o.Kinds))
	}
	for k, n := range o.Kinds {
		s.Kinds[k] += n
	}
	s.FaultKinds = mergeCountMap(s.FaultKinds, o.FaultKinds)
	s.FaultSeverities = mergeCountMap(s.FaultSeverities, o.FaultSeverities)
	s.Mechanisms = mergeMechanisms(s.Mechanisms, o.Mechanisms, true)
	s.Cores = mergeCores(s.Cores, o.Cores)
	if o.CrossCoreLatency != nil {
		if s.CrossCoreLatency == nil {
			lat := *o.CrossCoreLatency
			s.CrossCoreLatency = &lat
		} else {
			s.CrossCoreLatency.merge(*o.CrossCoreLatency)
		}
	}
	s.Storage = mergeStorage(s.Storage, o.Storage)
	s.Components = mergeComponents(s.Components, o.Components)
}

// Trim bounds the merged event stream to the most recent capacity
// events, mirroring the ring-buffer semantics of a single Recorder:
// older events are dropped (counted in DroppedEvents) and the survivors
// keep their global sequence numbers. capacity <= 0 trims nothing.
//
// The survivors are compacted to the front of the stream's own backing
// array, so a rolling merge that trims after every fold stops
// reallocating once the stream first reaches capacity. Callers must not
// keep the pre-trim slice.
func (s *Snapshot) Trim(capacity int) {
	if capacity <= 0 || len(s.Events) <= capacity {
		return
	}
	n := copy(s.Events, s.Events[len(s.Events)-capacity:])
	s.Events = s.Events[:n]
	s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
}

// mergeCountMap sums b's counters into a's, allocating a only when b has
// entries (nil in, nil out for the all-empty case, preserving the
// omitempty JSON shape).
func mergeCountMap(a, b map[string]uint64) map[string]uint64 {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make(map[string]uint64, len(b))
	}
	for k, n := range b {
		a[k] += n
	}
	return a
}

// mergeMechanisms adds b's cells into a's, matching by mechanism name.
// With full set, every mechanism of the paper taxonomy is present in
// the result (the Snapshot invariant); otherwise only non-zero cells
// survive (the per-component representation).
func mergeMechanisms(a, b []MechanismSnapshot, full bool) []MechanismSnapshot {
	var cells [NumMechanisms]MechStat
	for _, side := range [2][]MechanismSnapshot{a, b} {
		for _, m := range side {
			if i := mechIndex(m.Mechanism); i != MechNone {
				cells[i].merge(m.MechStat)
			}
		}
	}
	var out []MechanismSnapshot
	for m := MechR0; m <= MechU0; m++ {
		if !full && cells[m].Count == 0 {
			continue
		}
		if out == nil {
			out = make([]MechanismSnapshot, 0, NumMechanisms-1)
		}
		out = append(out, MechanismSnapshot{Mechanism: m.String(), MechStat: cells[m]})
	}
	return out
}

// mechIndex resolves a paper mechanism name (R0…U0) to its mechanism,
// MechNone for any other name.
func mechIndex(name string) Mechanism {
	for m := MechR0; m <= MechU0; m++ {
		if m.String() == name {
			return m
		}
	}
	return MechNone
}

// mergeCores unions two per-core tables by core number, summing the
// migration counters; the result is sorted by core (the Snapshot
// invariant). Nil in, nil out when both sides are empty.
func mergeCores(a, b []CoreSnapshot) []CoreSnapshot {
	if len(b) == 0 {
		return a
	}
	byCore := make(map[int]CoreSnapshot, len(a)+len(b))
	for _, c := range a {
		byCore[c.Core] = c
	}
	for _, c := range b {
		cur := byCore[c.Core]
		cur.Core = c.Core
		cur.MigrationsIn += c.MigrationsIn
		cur.MigrationsOut += c.MigrationsOut
		cur.CrossCoreInvocations += c.CrossCoreInvocations
		byCore[c.Core] = cur
	}
	out := make([]CoreSnapshot, 0, len(byCore))
	for _, c := range byCore {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Core < out[j].Core })
	return out
}

// mergeStorage folds b's storage-replication aggregates into a's:
// per-replica counters are unioned by replica number and summed, the
// quorum counters added, and the rebuild histograms merged bucket-wise.
// Nil in, nil out when both sides are empty; the result never aliases b.
func mergeStorage(a, b *StorageSnapshot) *StorageSnapshot {
	if b == nil {
		return a
	}
	if a == nil {
		a = &StorageSnapshot{}
	}
	byRep := make(map[int]StorageReplicaSnapshot, len(a.Replicas)+len(b.Replicas))
	for _, rs := range a.Replicas {
		byRep[rs.Replica] = rs
	}
	for _, rs := range b.Replicas {
		cur := byRep[rs.Replica]
		cur.Replica = rs.Replica
		cur.Writes += rs.Writes
		cur.Checkpoints += rs.Checkpoints
		cur.Rebuilds += rs.Rebuilds
		cur.Repairs += rs.Repairs
		byRep[rs.Replica] = cur
	}
	a.Replicas = a.Replicas[:0]
	for _, rs := range byRep {
		a.Replicas = append(a.Replicas, rs)
	}
	sort.Slice(a.Replicas, func(i, j int) bool { return a.Replicas[i].Replica < a.Replicas[j].Replica })
	a.QuorumRepairs += b.QuorumRepairs
	a.QuorumLost += b.QuorumLost
	if b.RebuildLatency != nil {
		if a.RebuildLatency == nil {
			lat := *b.RebuildLatency
			a.RebuildLatency = &lat
		} else {
			a.RebuildLatency.merge(*b.RebuildLatency)
		}
	}
	return a
}

// mergeComponents unions two per-component tables by component ID,
// summing counters and adding mechanism cells; the result is sorted by
// ID (the Snapshot invariant).
func mergeComponents(a, b []ComponentSnapshot) []ComponentSnapshot {
	if len(b) == 0 {
		return a
	}
	byID := make(map[int32]ComponentSnapshot, len(a)+len(b))
	for _, c := range a {
		byID[c.ID] = c
	}
	for _, c := range b {
		cur, ok := byID[c.ID]
		if !ok {
			// Copy the cell list and counter map so the merged snapshot
			// never aliases b.
			c.Mechanisms = append([]MechanismSnapshot(nil), c.Mechanisms...)
			c.FaultKinds = mergeCountMap(nil, c.FaultKinds)
			byID[c.ID] = c
			continue
		}
		if cur.Name == "" {
			cur.Name = c.Name
		}
		cur.Invokes += c.Invokes
		cur.Upcalls += c.Upcalls
		cur.Faults += c.Faults
		cur.Reboots += c.Reboots
		cur.Degraded += c.Degraded
		cur.Mechanisms = mergeMechanisms(cur.Mechanisms, c.Mechanisms, false)
		cur.FaultKinds = mergeCountMap(cur.FaultKinds, c.FaultKinds)
		byID[c.ID] = cur
	}
	out := make([]ComponentSnapshot, 0, len(byID))
	for _, c := range byID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
