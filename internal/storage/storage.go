// Package storage implements the redundant storage component of the C³ /
// SuperGlue design.
//
// The storage component backs two recovery mechanisms:
//
//   - G0 (global descriptors): it records which component created each
//     globally addressable descriptor, together with the creation metadata,
//     so that after a µ-reboot the server-side stub can route an upcall to
//     the creator to rebuild the descriptor, and it maintains the mapping
//     from pre-fault descriptor IDs to their post-recovery replacements.
//   - G1 (resource data): it retains ⟨id, offset, length, data⟩ slices for
//     resources whose contents cannot be rebuilt from interface state alone
//     (e.g., file contents in the RAM filesystem). Data is referenced
//     through the zero-copy cbuf subsystem: the producer writes the cbuf,
//     storage holds a read-only mapping, so a faulty producer cannot
//     corrupt saved slices retroactively beyond what it already wrote.
//
// The paper places the single redundant storage component in the trusted
// base (§II-E). This implementation goes further: the store is N-way
// replicated and IS a fault-injection target. Each replica keeps its own
// descriptor/slice state, journals every write to a checksummed write-ahead
// log, and periodically checkpoints its descriptor state (truncating the
// log). Reads are served by majority vote across replicas; a crashed
// replica is rebuilt from its own checkpoint + log replay (µ-reboot for
// storage itself), and a divergent or corrupt replica is detected, booked
// as a typed fault.Event, and repaired by anti-entropy from the quorum.
// With -replicas 1 the store degrades to the paper's trusted single copy:
// byte-identical behavior to the pre-replication implementation, including
// the expected data loss when that one copy is crashed or corrupted.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"superglue/internal/cbuf"
	"superglue/internal/fault"
	"superglue/internal/kernel"
)

// Class partitions the descriptor/resource namespace per service (events,
// files, ...). Services allocate distinct classes at system assembly time.
type Class int32

// CreatorRecord remembers who created a global descriptor and with which
// arguments, so the descriptor can be rebuilt by upcalling the creator.
type CreatorRecord struct {
	Creator kernel.ComponentID
	Meta    []kernel.Word
}

// Slice is one saved extent of a resource's data, referencing a cbuf region.
type Slice struct {
	Offset  int // offset within the resource
	Length  int
	Cbuf    cbuf.ID
	CbufOff int
	// Sum is the FNV-1a checksum of the extent's bytes, captured at save
	// time. The cbuf producer-retention discipline makes the saved region
	// immutable, so a mismatch at read time means the redundant copy (or
	// its metadata) was corrupted after the save — mechanism G1's
	// end-to-end integrity check.
	Sum uint32
}

// sum32 is FNV-1a over data: cheap, deterministic, and good enough to catch
// the single-bit flips the corruption campaigns inject.
func sum32(data []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range data {
		h ^= uint32(b)
		h *= prime32
	}
	return h
}

// Tracer receives storage-level trace events; *obs.Recorder implements it.
// All methods must tolerate high call rates (writes) — implementations
// should only bump counters on the hot path.
type Tracer interface {
	// RecordStorageWrite counts one WAL record appended on a replica.
	RecordStorageWrite(replica int)
	// RecordStorageCheckpoint counts one checkpoint captured on a replica.
	RecordStorageCheckpoint(replica int)
	// RecordStorageRebuild reports a replica µ-reboot: replayed is the
	// number of WAL records re-applied (the rebuild's latency dimension);
	// antiEntropy is true when the replica was repaired by a full copy
	// from a quorum peer instead of local checkpoint+log replay.
	RecordStorageRebuild(replica, replayed int, antiEntropy bool)
	// RecordStorageRepair reports a divergent replica caught and repaired
	// by a quorum read.
	RecordStorageRepair(replica int, context string)
	// RecordStorageQuorumLost reports a read or rebuild that could not
	// assemble a majority of agreeing, uncorrupted replicas.
	RecordStorageQuorumLost(context string)
}

// Store is the storage component's state: N replicas behind one API. The
// zero value is not usable; construct with New or NewReplicated.
type Store struct {
	cm   *cbuf.Manager
	self cbuf.ComponentID
	reps []*replica
	obs  Tracer
	// faults is the log of typed events the store booked when it detected
	// crashed or divergent replicas.
	faults        []fault.Event
	quorumRepairs uint64
	quorumLost    uint64
	// corruptions counts checksum mismatches detected at read or rebuild.
	corruptions uint64
	// enc is the reusable record-encode scratch buffer for sealing: one
	// seal per write, shared by all replicas.
	enc []byte
}

type key struct {
	class Class
	id    kernel.Word
}

// ErrNotFound reports a lookup of an unrecorded descriptor or resource.
var ErrNotFound = errors.New("storage: not found")

// ErrCorrupted reports that a saved extent failed its checksum: the
// redundant copy no longer matches what was saved, so it must not be used
// to rebuild state. Readers are expected to fail stop on it (fault
// themselves with a storage-corruption classification) rather than serve
// silently wrong data.
var ErrCorrupted = errors.New("storage: saved data corrupted (checksum mismatch)")

// New constructs a single-replica Store that resolves data references
// through cm — the paper's trusted single redundant copy. The component ID
// is used for cbuf read mappings and is assigned by Attach.
func New(cm *cbuf.Manager) *Store {
	return NewReplicated(cm, 1)
}

// NewReplicated constructs a Store with n replicas (n < 1 is clamped to 1).
// Every write is applied to all replicas and journaled per replica; reads
// require majority agreement when n > 1.
func NewReplicated(cm *cbuf.Manager, n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{cm: cm, reps: make([]*replica, n)}
	for i := range s.reps {
		s.reps[i] = newReplica(i, DefaultCheckpointEvery)
	}
	return s
}

// Replicas reports the store's replication factor.
func (s *Store) Replicas() int {
	return len(s.reps)
}

// SetObserver wires a tracer for per-replica counters and quorum/rebuild
// events. Pass nil to detach.
func (s *Store) SetObserver(t Tracer) {
	s.obs = t
}

// SetCheckpointEvery overrides the WAL length at which each replica
// checkpoints (tests use small values to exercise the checkpoint path).
func (s *Store) SetCheckpointEvery(n int) {
	for _, r := range s.reps {
		if n > 0 {
			r.checkpointEvery = n
		}
	}
}

// Attach tells the store its own component identity (for cbuf mappings and
// fault-event attribution).
func (s *Store) Attach(self kernel.ComponentID) {
	s.self = cbuf.ComponentID(self)
}

// Faults returns the typed fault events the store booked for detected
// replica crashes, divergence, and quorum loss, in detection order.
func (s *Store) Faults() []fault.Event {
	return append([]fault.Event(nil), s.faults...)
}

// QuorumRepairs reports how many divergent replicas quorum reads have
// caught and repaired.
func (s *Store) QuorumRepairs() uint64 {
	return s.quorumRepairs
}

// QuorumLost reports how many reads or rebuilds found no majority of
// agreeing, uncorrupted replicas.
func (s *Store) QuorumLost() uint64 {
	return s.quorumLost
}

func (s *Store) book(e fault.Event) {
	s.faults = append(s.faults, e)
}

// ensureLive µ-reboots any crashed replica before an operation
// proceeds: restore the last checkpoint, replay the WAL, verify every
// checksum on the way. A replica whose durable images fail verification is
// repaired by anti-entropy from the lowest-index clean live peer; with no
// clean peer it keeps the valid prefix it could replay (divergence a later
// quorum read detects and repairs).
func (s *Store) ensureLive() {
	for i, r := range s.reps {
		if r.live {
			continue
		}
		res, replayed := r.restore(s.cm, s.self)
		if res == restoreClean {
			r.suspect = false
			r.rebuilds++
			s.book(fault.New(fault.KindStorageCrash, int32(s.self),
				fmt.Sprintf("storage replica %d fail-stop detected; rebuilt from checkpoint+log (%d records replayed)", i, replayed)))
			if s.obs != nil {
				s.obs.RecordStorageRebuild(i, replayed, false)
			}
			continue
		}
		r.corrupt++
		s.corruptions++
		if donor := s.cleanPeer(i); donor != nil {
			r.adopt(donor)
			r.rebuilds++
			s.book(fault.New(fault.KindStorageCorruption, int32(s.self),
				fmt.Sprintf("storage replica %d durable state corrupt; rebuilt by anti-entropy from replica %d", i, donor.idx)))
			if s.obs != nil {
				s.obs.RecordStorageRebuild(i, replayed, true)
			}
			continue
		}
		r.suspect = true
		r.rebuilds++
		s.quorumLost++
		s.book(fault.New(fault.KindStorageCorruption, int32(s.self),
			fmt.Sprintf("storage replica %d durable state corrupt and no clean peer; kept valid prefix (%d records)", i, replayed)))
		if s.obs != nil {
			s.obs.RecordStorageRebuild(i, replayed, false)
			s.obs.RecordStorageQuorumLost(fmt.Sprintf("rebuild of replica %d", i))
		}
	}
}

// cleanPeer picks the anti-entropy donor for a rebuild of replica
// skip: the lowest-index live replica not itself under suspicion.
func (s *Store) cleanPeer(skip int) *replica {
	for j, r := range s.reps {
		if j == skip || !r.live || r.suspect {
			continue
		}
		return r
	}
	return nil
}

// vote takes one canonical answer key per replica, finds the
// majority answer, repairs every divergent replica from a majority donor,
// and returns the donor's index. Ties break to the lowest replica index,
// keeping the result deterministic; a winner short of a strict majority is
// additionally booked as quorum loss (the caller still gets the
// deterministic best answer, modeling data loss beyond the failure model).
// context names the read for the booked events. It is called only past
// the agreement check — from there on at least one repair is booked —
// so a read whose replicas agree never formats it.
func (s *Store) vote(keys []string, context func() string) int {
	counts := make(map[string]int, len(keys))
	for _, k := range keys {
		counts[k]++
	}
	if len(counts) == 1 {
		return 0
	}
	ctx := context()
	best := 0
	for i := 1; i < len(keys); i++ {
		if counts[keys[i]] > counts[keys[best]] {
			best = i
		}
	}
	if counts[keys[best]]*2 <= len(keys) {
		s.quorumLost++
		s.book(fault.New(fault.KindStorageCorruption, int32(s.self),
			fmt.Sprintf("storage quorum lost on %s: no majority across %d replicas", ctx, len(keys))))
		if s.obs != nil {
			s.obs.RecordStorageQuorumLost(ctx)
		}
	}
	donor := s.reps[best]
	for i, k := range keys {
		if k == keys[best] {
			continue
		}
		s.reps[i].corrupt++
		s.corruptions++
		s.reps[i].adopt(donor)
		s.reps[i].rebuilds++
		s.quorumRepairs++
		s.book(fault.New(fault.KindStorageCorruption, int32(s.self),
			fmt.Sprintf("storage replica %d divergent on %s; repaired from replica %d", i, ctx, best)))
		if s.obs != nil {
			s.obs.RecordStorageRepair(i, ctx)
		}
	}
	return best
}

// quorumStack is how many per-replica answers the typed agreement check
// keeps on the stack; larger stores spill to the heap.
const quorumStack = 8

// answerBuf returns n answer slots: buf's own when it is large enough.
func answerBuf[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// quorum picks the quorum answer among one answer per replica and
// returns its index. Agreement — every answer equal to replica 0's under
// eq, the common case — returns 0 without formatting a key or a context.
// Only on disagreement does it fall back to vote's canonical-string
// vote, keying each answer with key; eq must agree exactly with equality
// of those keys, so both paths pick the same replica.
func quorum[T any](s *Store, answers []T, eq func(a, b T) bool, key func(T) string, context func() string) int {
	for _, a := range answers[1:] {
		if !eq(answers[0], a) {
			keys := make([]string, len(answers))
			for i, a := range answers {
				keys[i] = key(a)
			}
			return s.vote(keys, context)
		}
	}
	return 0
}

// appendRecord journals one write on every replica (rebuilding crashed
// ones first, so no replica misses a write).
func (s *Store) appendRecord(rec walRecord) {
	s.ensureLive()
	// The record's byte encoding is identical on every replica, so it is
	// sealed once — into the store's reusable scratch buffer — instead of
	// once per replica per write.
	s.enc = rec.sealInto(s.enc)
	for _, r := range s.reps {
		checkpointed := r.append(rec, s.cm, s.self)
		if s.obs != nil {
			s.obs.RecordStorageWrite(r.idx)
			if checkpointed {
				s.obs.RecordStorageCheckpoint(r.idx)
			}
		}
	}
}

// RecordCreator registers creator as the component that created global
// descriptor id, with the creation arguments meta (mechanism G0). The meta
// slice is copied at the boundary.
func (s *Store) RecordCreator(class Class, id kernel.Word, creator kernel.ComponentID, meta []kernel.Word) {
	m := make([]kernel.Word, len(meta))
	copy(m, meta)
	s.appendRecord(walRecord{op: opRecordCreator, class: class, id: id, creator: creator, meta: m})
}

// LookupCreator returns the creator record for a global descriptor. With
// multiple replicas the answer is the quorum's.
func (s *Store) LookupCreator(class Class, id kernel.Word) (CreatorRecord, bool) {
	s.ensureLive()
	if len(s.reps) == 1 {
		rec, ok := s.reps[0].state.creators[key{class, id}]
		return rec, ok
	}
	type lookup struct {
		rec CreatorRecord
		ok  bool
	}
	var buf [quorumStack]lookup
	answers := answerBuf(buf[:], len(s.reps))
	for i, r := range s.reps {
		answers[i].rec, answers[i].ok = r.state.creators[key{class, id}]
	}
	best := quorum(s, answers,
		func(a, b lookup) bool {
			return a.ok == b.ok && a.rec.Creator == b.rec.Creator && slices.Equal(a.rec.Meta, b.rec.Meta)
		},
		func(a lookup) string { return fmt.Sprintf("%t|%v", a.ok, a.rec) },
		func() string { return fmt.Sprintf("lookup-creator class %d id %d", class, id) })
	return answers[best].rec, answers[best].ok
}

// RemoveCreator forgets a descriptor (called when it is legitimately
// terminated, so recovery does not resurrect it).
func (s *Store) RemoveCreator(class Class, id kernel.Word) {
	s.appendRecord(walRecord{op: opRemoveCreator, class: class, id: id})
}

// Remap records that pre-fault descriptor old is now served under id now
// (after a recovery recreated it). Resolve follows remap chains. The
// creator record and any saved data move with the descriptor, so subsequent
// G0/G1 lookups find them under the current ID.
func (s *Store) Remap(class Class, old, now kernel.Word) {
	if old == now {
		return
	}
	s.appendRecord(walRecord{op: opRemap, class: class, id: old, now: now})
}

// resolveIn maps id through st's remap chains, path-compressing on the way
// out (the shared algorithm each replica runs).
func resolveIn(st repState, class Class, id kernel.Word) kernel.Word {
	root := id
	for i := 0; i < len(st.remap)+1; i++ {
		now, ok := st.remap[key{class, root}]
		if !ok {
			break
		}
		root = now
	}
	// Compress: point every link on the chain directly at the root.
	for id != root {
		next := st.remap[key{class, id}]
		st.remap[key{class, id}] = root
		id = next
	}
	return root
}

// Resolve maps a possibly stale descriptor ID to its current one, following
// chains produced by repeated faults. Unmapped IDs resolve to themselves.
// Chains are path-compressed on the way out, so a descriptor recreated
// across many faults stays O(1) to resolve instead of O(faults). With
// multiple replicas the answer is the quorum's. Compression is a local
// optimization, not a journaled write: replay rebuilds the uncompressed
// chains, which resolve identically.
func (s *Store) Resolve(class Class, id kernel.Word) kernel.Word {
	s.ensureLive()
	if len(s.reps) == 1 {
		return resolveIn(s.reps[0].state, class, id)
	}
	var buf [quorumStack]kernel.Word
	answers := answerBuf(buf[:], len(s.reps))
	for i, r := range s.reps {
		answers[i] = resolveIn(r.state, class, id)
	}
	best := quorum(s, answers,
		func(a, b kernel.Word) bool { return a == b },
		func(a kernel.Word) string { return fmt.Sprintf("%d", a) },
		func() string { return fmt.Sprintf("resolve class %d id %d", class, id) })
	return answers[best]
}

// SaveSlice records one extent of a resource's data (mechanism G1). The
// extent references length bytes at cbufOff within buffer b, standing for
// bytes [offset, offset+length) of the resource. Overlapping extents are
// resolved newest-wins at read time. The store takes a read-only mapping of
// the buffer.
func (s *Store) SaveSlice(class Class, id kernel.Word, offset int, b cbuf.ID, cbufOff, length int) error {
	if offset < 0 || length < 0 {
		return fmt.Errorf("storage: invalid slice [%d, %d)", offset, offset+length)
	}
	self := s.self
	if err := s.cm.Map(b, self); err != nil {
		return fmt.Errorf("storage: mapping cbuf %d: %w", b, err)
	}
	var sum uint32
	if length > 0 {
		data, err := s.cm.Read(b, self, cbufOff, length)
		if err != nil {
			return fmt.Errorf("storage: checksumming extent at %d: %w", offset, err)
		}
		sum = sum32(data)
	}
	s.appendRecord(walRecord{op: opSaveSlice, class: class, id: id,
		slice: Slice{Offset: offset, Length: length, Cbuf: b, CbufOff: cbufOff, Sum: sum}})
	return nil
}

// Truncate drops all saved slices at or beyond size, and trims extents that
// straddle it, so ReadAll reflects a resource shortened to size bytes.
func (s *Store) Truncate(class Class, id kernel.Word, size int) {
	s.appendRecord(walRecord{op: opTruncate, class: class, id: id, size: size})
}

// Drop forgets all data saved for a resource (legitimate deletion).
func (s *Store) Drop(class Class, id kernel.Word) {
	s.appendRecord(walRecord{op: opDrop, class: class, id: id})
}

// HasData reports whether any data is saved for the resource.
func (s *Store) HasData(class Class, id kernel.Word) bool {
	s.ensureLive()
	if len(s.reps) == 1 {
		return len(s.reps[0].state.slices[key{class, id}]) > 0
	}
	var buf [quorumStack]bool
	answers := answerBuf(buf[:], len(s.reps))
	for i, r := range s.reps {
		answers[i] = len(r.state.slices[key{class, id}]) > 0
	}
	best := quorum(s, answers,
		func(a, b bool) bool { return a == b },
		func(a bool) string { return fmt.Sprintf("%t", a) },
		func() string { return fmt.Sprintf("has-data class %d id %d", class, id) })
	return answers[best]
}

// readAllFrom reassembles a resource from one replica's saved extents
// without touching shared counters. corrupt reports a checksum mismatch.
func (s *Store) readAllFrom(st repState, class Class, id kernel.Word) (data []byte, corrupt bool, err error) {
	extents := st.slices[key{class, id}]
	if len(extents) == 0 {
		return nil, false, fmt.Errorf("%w: class %d id %d", ErrNotFound, class, id)
	}
	size := 0
	for _, e := range extents {
		if end := e.Offset + e.Length; end > size {
			size = end
		}
	}
	out := make([]byte, size)
	for _, e := range extents {
		data, err := s.cm.Read(e.Cbuf, s.self, e.CbufOff, e.Length)
		if err != nil {
			return nil, false, fmt.Errorf("storage: reading extent at %d: %w", e.Offset, err)
		}
		if e.Length > 0 && sum32(data) != e.Sum {
			return nil, true, fmt.Errorf("%w: class %d id %d extent at %d", ErrCorrupted, class, id, e.Offset)
		}
		copy(out[e.Offset:], data)
	}
	return out, false, nil
}

// ReadAll reassembles the full contents of a resource from its saved
// extents, applying them in save order (newest wins on overlap). It returns
// ErrNotFound if nothing was saved. With multiple replicas the result is
// the majority's: a replica whose copy fails its checksums (or disagrees
// with the majority) is booked as corrupt and repaired from a majority
// peer, and the read still succeeds as long as a majority agrees.
func (s *Store) ReadAll(class Class, id kernel.Word) ([]byte, error) {
	s.ensureLive()
	if len(s.reps) == 1 {
		data, corrupt, err := s.readAllFrom(s.reps[0].state, class, id)
		if corrupt {
			s.corruptions++
		}
		return data, err
	}
	// Replicas holding the same extent list read the same cbuf bytes
	// against the same checksums, so their answers agree: one read of
	// replica 0 serves them all. A corrupt answer is the exception: the
	// vote keys each corrupt copy uniquely, so even identical corrupt
	// copies go to the vote below.
	k := key{class, id}
	agree := true
	for _, r := range s.reps[1:] {
		if !slices.Equal(r.state.slices[k], s.reps[0].state.slices[k]) {
			agree = false
			break
		}
	}
	if agree {
		if data, corrupt, err := s.readAllFrom(s.reps[0].state, class, id); !corrupt {
			return data, err
		}
	}
	type result struct {
		data []byte
		err  error
	}
	results := make([]result, len(s.reps))
	keys := make([]string, len(s.reps))
	for i, r := range s.reps {
		data, corrupt, err := s.readAllFrom(r.state, class, id)
		results[i] = result{data: data, err: err}
		switch {
		case corrupt:
			// A self-evidently corrupt copy gets a unique key so it can
			// never form part of a majority.
			keys[i] = fmt.Sprintf("corrupt#%d", i)
		case err != nil:
			keys[i] = "err|" + err.Error()
		default:
			keys[i] = "ok|" + string(data)
		}
	}
	best := s.vote(keys, func() string { return fmt.Sprintf("read class %d id %d", class, id) })
	return results[best].data, results[best].err
}

// CorruptionsDetected reports how many checksum mismatches the store has
// caught (at reads, quorum votes, and replica rebuilds) since construction
// — the campaign-level "detected vs injected" accounting for
// storage-corruption faults.
func (s *Store) CorruptionsDetected() uint64 { return s.corruptions }

// CorruptOne flips a bit in the stored checksum of one saved extent of the
// class on replica 0, simulating silent corruption of the redundant copy:
// the data and its integrity record no longer agree, so the next ReadAll of
// that resource fails with ErrCorrupted (single replica) or is repaired by
// the quorum (multiple replicas). The victim is chosen deterministically
// from pick: resources are visited in ascending ID order and pick indexes
// (modulo the population) into their extents, newest first. It returns the
// corrupted resource's ID, or false if the class has no saved data.
func (s *Store) CorruptOne(class Class, pick int) (kernel.Word, bool) {
	slices := s.reps[0].state.slices
	var ids []kernel.Word
	total := 0
	for k, sl := range slices {
		if k.class == class && len(sl) > 0 {
			ids = append(ids, k.id)
			total += len(sl)
		}
	}
	if total == 0 {
		return 0, false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if pick < 0 {
		pick = -pick
	}
	n := pick % total
	for _, id := range ids {
		sl := slices[key{class, id}]
		if n >= len(sl) {
			n -= len(sl)
			continue
		}
		sl[len(sl)-1-n].Sum ^= 1
		return id, true
	}
	return 0, false // unreachable
}

// CrashReplica fail-stops replica i: its in-memory state is lost; its
// durable WAL and checkpoint images survive and seed the rebuild the next
// operation triggers. It reports whether a live replica was crashed.
func (s *Store) CrashReplica(i int) bool {
	if i < 0 || i >= len(s.reps) || !s.reps[i].live {
		return false
	}
	s.reps[i].crash()
	return true
}

// CorruptReplica flips one bit somewhere in replica i's state: a saved
// extent's checksum in the live slice state, a WAL record's checksum, or
// the checkpoint's checksum — chosen deterministically by pick modulo the
// population (live extents in ascending key order newest-first, then WAL
// records in append order, then the checkpoint). It returns a description
// of the victim, or false if the replica holds nothing corruptible.
func (s *Store) CorruptReplica(i, pick int) (string, bool) {
	if i < 0 || i >= len(s.reps) {
		return "", false
	}
	r := s.reps[i]
	var eligible []key
	ext := 0
	for _, k := range sortedKeys(r.state.slices) {
		if n := len(r.state.slices[k]); n > 0 {
			eligible = append(eligible, k)
			ext += n
		}
	}
	cpn := 0
	if r.cp != nil {
		cpn = 1
	}
	total := ext + len(r.wal) + cpn
	if total == 0 {
		return "", false
	}
	if pick < 0 {
		pick = -pick
	}
	n := pick % total
	if n < ext {
		for _, k := range eligible {
			sl := r.state.slices[k]
			if n >= len(sl) {
				n -= len(sl)
				continue
			}
			sl[len(sl)-1-n].Sum ^= 1
			return fmt.Sprintf("replica %d slice class %d id %d", i, k.class, k.id), true
		}
	}
	n -= ext
	if n < len(r.wal) {
		r.wal[n].sum ^= 1
		return fmt.Sprintf("replica %d wal record %d (%s)", i, n, r.wal[n].op), true
	}
	r.cp.sum ^= 1
	return fmt.Sprintf("replica %d checkpoint", i), true
}

// ReplicaLive reports whether replica i is live (not crashed-and-pending-
// rebuild).
func (s *Store) ReplicaLive(i int) bool {
	return i >= 0 && i < len(s.reps) && s.reps[i].live
}

// Creators lists the IDs of all recorded global descriptors of a class, in
// ascending order. Eager recovery uses this to enumerate what must be
// rebuilt. With multiple replicas the list is the quorum's.
func (s *Store) Creators(class Class) []kernel.Word {
	s.ensureLive()
	if len(s.reps) == 1 {
		return creatorsIn(s.reps[0].state, class)
	}
	answers := make([][]kernel.Word, len(s.reps))
	for i, r := range s.reps {
		answers[i] = creatorsIn(r.state, class)
	}
	best := quorum(s, answers, slices.Equal[[]kernel.Word],
		func(a []kernel.Word) string { return fmt.Sprintf("%v", a) },
		func() string { return fmt.Sprintf("creators class %d", class) })
	return answers[best]
}

func creatorsIn(st repState, class Class) []kernel.Word {
	var ids []kernel.Word
	for k := range st.creators {
		if k.class == class {
			ids = append(ids, k.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Interface function names for kernel-mediated access. The hot-path save
// operations cross the kernel like any component invocation so that their
// cost shows up in measurements; recovery-time reads use the Go API
// directly, modeling C³ reflection on the storage component.
const (
	FnRecordCreator = "st_record_creator"
	FnRemoveCreator = "st_remove_creator"
	FnRemap         = "st_remap"
	FnResolve       = "st_resolve"
	FnSaveSlice     = "st_save_slice"
	FnTruncate      = "st_truncate"
	FnDrop          = "st_drop"
)

// Component wraps a Store as an invocable kernel service.
type Component struct {
	store *Store
}

var _ kernel.Service = (*Component)(nil)

// NewComponent wraps store for kernel registration. The same Store instance
// survives across the service-level reboot path: replica crashes and
// corruption are injected and recovered *inside* the store (CrashReplica /
// CorruptReplica), not by reconstructing it.
func NewComponent(store *Store) *Component {
	return &Component{store: store}
}

// Name implements kernel.Service.
func (c *Component) Name() string { return "storage" }

// Init implements kernel.Service.
func (c *Component) Init(bc *kernel.BootContext) error {
	c.store.Attach(bc.Self)
	return nil
}

// Store returns the underlying store, for reflection-style recovery access.
func (c *Component) Store() *Store { return c.store }

// Dispatch implements kernel.Service.
func (c *Component) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("storage: %s needs %d args, got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case FnRecordCreator:
		if err := need(3); err != nil {
			return 0, err
		}
		c.store.RecordCreator(Class(args[0]), args[1], kernel.ComponentID(args[2]), args[3:])
		return 0, nil
	case FnRemoveCreator:
		if err := need(2); err != nil {
			return 0, err
		}
		c.store.RemoveCreator(Class(args[0]), args[1])
		return 0, nil
	case FnRemap:
		if err := need(3); err != nil {
			return 0, err
		}
		c.store.Remap(Class(args[0]), args[1], args[2])
		return 0, nil
	case FnResolve:
		if err := need(2); err != nil {
			return 0, err
		}
		return c.store.Resolve(Class(args[0]), args[1]), nil
	case FnSaveSlice:
		if err := need(5); err != nil {
			return 0, err
		}
		return 0, c.store.SaveSlice(Class(args[0]), args[1], int(args[2]), cbuf.ID(args[3]), 0, int(args[4]))
	case FnTruncate:
		if err := need(3); err != nil {
			return 0, err
		}
		c.store.Truncate(Class(args[0]), args[1], int(args[2]))
		return 0, nil
	case FnDrop:
		if err := need(2); err != nil {
			return 0, err
		}
		c.store.Drop(Class(args[0]), args[1])
		return 0, nil
	default:
		return 0, kernel.DispatchError(c.Name(), fn)
	}
}
