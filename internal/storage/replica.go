package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"superglue/internal/cbuf"
	"superglue/internal/kernel"
)

// This file implements the per-replica backend of the replicated store:
// the in-memory descriptor/slice state, the write-ahead log of typed
// checksummed records, and the periodic descriptor-state checkpoints
// that truncate the log. A replica models one redundant copy on its own
// failure domain: a fail-stop crash loses the in-memory state but not
// the durable WAL + checkpoint images, so a crashed replica µ-reboots by
// restoring its last checkpoint and replaying the log — the same
// checkpoint/rollback-recovery discipline the Treaster survey catalogues
// for the storage tier itself.

// walOp tags one write-ahead-log record with the mutation it journals.
type walOp uint8

// The WAL record taxonomy: exactly the write operations of the Store
// API. Reads are never journaled.
const (
	opRecordCreator walOp = iota + 1
	opRemoveCreator
	opRemap
	opSaveSlice
	opTruncate
	opDrop
)

// String returns the record type's wire name (diagnostics only).
func (o walOp) String() string {
	switch o {
	case opRecordCreator:
		return "creator-record"
	case opRemoveCreator:
		return "creator-remove"
	case opRemap:
		return "remap"
	case opSaveSlice:
		return "slice-save"
	case opTruncate:
		return "truncate"
	case opDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// walRecord is one journaled mutation. Sum is the FNV-1a checksum of the
// record's deterministic byte encoding, captured at append time; replay
// re-encodes and verifies, so a flipped bit anywhere in the record is
// detected before the mutation is re-applied.
type walRecord struct {
	op      walOp
	class   Class
	id      kernel.Word
	now     kernel.Word // opRemap target
	creator kernel.ComponentID
	meta    []kernel.Word
	slice   Slice
	size    int // opTruncate size
	sum     uint32
}

// encode appends the record's deterministic byte encoding to buf.
func (r *walRecord) encode(buf []byte) []byte {
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	buf = append(buf, byte(r.op))
	u64(uint64(r.class))
	u64(uint64(r.id))
	u64(uint64(r.now))
	u64(uint64(r.creator))
	u64(uint64(len(r.meta)))
	for _, m := range r.meta {
		u64(uint64(m))
	}
	u64(uint64(r.slice.Offset))
	u64(uint64(r.slice.Length))
	u64(uint64(r.slice.Cbuf))
	u64(uint64(r.slice.CbufOff))
	u64(uint64(r.slice.Sum))
	u64(uint64(r.size))
	return buf
}

// seal captures the record checksum after every payload field is set.
func (r *walRecord) seal() { r.sum = sum32(r.encode(nil)) }

// sealInto is seal with a caller-owned scratch buffer: the record is
// encoded into scratch[:0] and the grown buffer is returned for reuse,
// so the quorum write path seals without a per-write allocation.
func (r *walRecord) sealInto(scratch []byte) []byte {
	buf := r.encode(scratch[:0])
	r.sum = sum32(buf)
	return buf
}

// verify reports whether the record still matches its checksum.
func (r *walRecord) verify() bool { return sum32(r.encode(nil)) == r.sum }

// verifyInto is verify with a caller-owned scratch buffer (same contract
// as sealInto), for the replay loop of a rebuild.
func (r *walRecord) verifyInto(scratch []byte) ([]byte, bool) {
	buf := r.encode(scratch[:0])
	return buf, sum32(buf) == r.sum
}

// repState is one replica's live descriptor/slice state: the maps the
// single-copy store used to hold directly.
type repState struct {
	creators map[key]CreatorRecord
	remap    map[key]kernel.Word
	slices   map[key][]Slice
}

// newRepState allocates empty state maps.
func newRepState() repState {
	return repState{
		creators: make(map[key]CreatorRecord),
		remap:    make(map[key]kernel.Word),
		slices:   make(map[key][]Slice),
	}
}

// clone deep-copies the state (checkpoint images and anti-entropy
// transfers must never alias live maps).
func (st repState) clone() repState {
	out := repState{
		creators: make(map[key]CreatorRecord, len(st.creators)),
		remap:    make(map[key]kernel.Word, len(st.remap)),
		slices:   make(map[key][]Slice, len(st.slices)),
	}
	for k, rec := range st.creators {
		meta := make([]kernel.Word, len(rec.Meta))
		copy(meta, rec.Meta)
		out.creators[k] = CreatorRecord{Creator: rec.Creator, Meta: meta}
	}
	for k, v := range st.remap {
		out.remap[k] = v
	}
	for k, sl := range st.slices {
		out.slices[k] = append([]Slice(nil), sl...)
	}
	return out
}

// sortedKeys returns m's keys in (class, id) order for deterministic
// encoding. The three state maps share the key type, so one helper
// serves them all.
func sortedKeys[V any](m map[key]V) []key {
	out := make([]key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// compareKeys orders keys by class, then ID.
func compareKeys(a, b key) int {
	if c := cmp.Compare(a.class, b.class); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// encodeInto appends the state's deterministic encoding — the checkpoint
// image — to buf. Each of the three sections (creators, remap links,
// slice lists) is a count followed by its entries in ascending key
// order; variable-length entries carry their own counts, so the image
// decodes back to the state (decodeState). Remap chains are
// path-compressed lazily by Resolve, so two behaviorally identical
// replicas can hold different remap maps; the image checksum only guards
// one replica's image against bit rot, never cross-replica agreement —
// quorum compares query answers, not raw state bytes.
func (st repState) encodeInto(buf []byte) []byte {
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	u64(uint64(len(st.creators)))
	for _, k := range sortedKeys(st.creators) {
		rec := st.creators[k]
		u64(uint64(k.class))
		u64(uint64(k.id))
		u64(uint64(rec.Creator))
		u64(uint64(len(rec.Meta)))
		for _, m := range rec.Meta {
			u64(uint64(m))
		}
	}
	u64(uint64(len(st.remap)))
	for _, k := range sortedKeys(st.remap) {
		u64(uint64(k.class))
		u64(uint64(k.id))
		u64(uint64(st.remap[k]))
	}
	u64(uint64(len(st.slices)))
	for _, k := range sortedKeys(st.slices) {
		u64(uint64(k.class))
		u64(uint64(k.id))
		u64(uint64(len(st.slices[k])))
		for _, sl := range st.slices[k] {
			u64(uint64(sl.Offset))
			u64(uint64(sl.Length))
			u64(uint64(sl.Cbuf))
			u64(uint64(sl.CbufOff))
			u64(uint64(sl.Sum))
		}
	}
	return buf
}

// imageError reports a checkpoint image that does not decode: truncated,
// out of order, carrying a field out of its type's range, or followed by
// trailing bytes.
type imageError struct {
	off    int // byte offset of the offending word
	reason string
}

func (e *imageError) Error() string {
	return fmt.Sprintf("storage: malformed checkpoint image at byte %d: %s", e.off, e.reason)
}

// imageReader walks a checkpoint image word by word, remembering the
// first error so a decode loop checks once per entry.
type imageReader struct {
	img []byte
	off int
	err *imageError
}

func (d *imageReader) fail(reason string) {
	if d.err == nil {
		d.err = &imageError{off: d.off, reason: reason}
	}
}

func (d *imageReader) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.img)-d.off < 8 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.img[d.off:])
	d.off += 8
	return v
}

// i32 reads a word that must be a sign-extended 32-bit value (Class,
// ComponentID), so re-encoding reproduces it.
func (d *imageReader) i32() int32 {
	v := d.u64()
	if int64(v) != int64(int32(v)) {
		d.fail("value out of 32-bit range")
	}
	return int32(v)
}

// count reads an entry count and rejects one the remaining bytes cannot
// hold at minWords words per entry, so a garbage count never drives a
// huge allocation.
func (d *imageReader) count(minWords int) int {
	v := d.u64()
	if d.err == nil && v > uint64(len(d.img)-d.off)/uint64(8*minWords) {
		d.fail("count exceeds image")
		return 0
	}
	return int(v)
}

// key reads a (class, id) pair that must sort strictly after prev, so an
// accepted image is the one canonical encoding of its state.
func (d *imageReader) key(prev *key, first bool) key {
	k := key{Class(d.i32()), kernel.Word(d.u64())}
	if d.err == nil && !first && compareKeys(*prev, k) >= 0 {
		d.fail("keys out of order")
	}
	*prev = k
	return k
}

// decodeState parses a checkpoint image back into replica state. It
// accepts exactly the images encodeInto produces — so re-encoding an
// accepted image reproduces it byte for byte — and rejects anything else
// with an *imageError; it never panics.
func decodeState(img []byte) (repState, error) {
	d := &imageReader{img: img}
	var prev key
	n := d.count(4)
	st := repState{creators: make(map[key]CreatorRecord, n)}
	for i := 0; i < n && d.err == nil; i++ {
		k := d.key(&prev, i == 0)
		creator := kernel.ComponentID(d.i32())
		meta := make([]kernel.Word, d.count(1))
		for j := range meta {
			meta[j] = kernel.Word(d.u64())
		}
		st.creators[k] = CreatorRecord{Creator: creator, Meta: meta}
	}
	n = d.count(3)
	st.remap = make(map[key]kernel.Word, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.key(&prev, i == 0)
		st.remap[k] = kernel.Word(d.u64())
	}
	n = d.count(3)
	st.slices = make(map[key][]Slice, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.key(&prev, i == 0)
		var sl []Slice
		if m := d.count(5); m > 0 {
			sl = make([]Slice, m)
		}
		for j := range sl {
			sl[j] = Slice{Offset: int(d.u64()), Length: int(d.u64()), Cbuf: cbuf.ID(d.u64()), CbufOff: int(d.u64())}
			if sum := d.u64(); sum > math.MaxUint32 {
				d.fail("extent checksum out of 32-bit range")
			} else {
				sl[j].Sum = uint32(sum)
			}
		}
		st.slices[k] = sl
	}
	if d.err == nil && d.off != len(img) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return repState{}, d.err
	}
	return st, nil
}

// checkpoint is one durable descriptor-state image: the sealed encoding
// of the state at capture time plus its checksum. The image, not a copy
// of the maps, is the durable state; a rebuild verifies and decodes it.
type checkpoint struct {
	img []byte
	sum uint32
}

// open verifies the image against its checksum and decodes it.
func (c *checkpoint) open() (repState, error) {
	if sum32(c.img) != c.sum {
		return repState{}, errors.New("storage: checkpoint checksum mismatch")
	}
	return decodeState(c.img)
}

// DefaultCheckpointEvery is the WAL length at which a replica captures a
// fresh checkpoint and truncates its log.
const DefaultCheckpointEvery = 64

// replica is one redundant copy of the store's contents.
type replica struct {
	idx  int
	live bool
	// suspect marks a replica whose last rebuild found corrupt durable
	// images and no clean peer to copy from: its state is a best-effort
	// valid prefix, so it must not serve as an anti-entropy donor until a
	// quorum read repairs it.
	suspect bool
	// state is the in-memory image a crash wipes.
	state repState
	// wal and cp are the durable images a crash spares: the write-ahead
	// log since the last checkpoint, and the last checkpoint (nil until
	// one was captured).
	wal []walRecord
	cp  *checkpoint
	// checkpointEvery is the WAL length that triggers a checkpoint.
	checkpointEvery int
	// enc is the reusable encode scratch buffer for checkpoint capture
	// and WAL verification. A capture swaps it with the superseded
	// checkpoint image, so it never aliases the current one.
	enc []byte
	// Counters surfaced through the obs snapshot.
	writes     uint64 // WAL records appended
	crashes    uint64 // fail-stop crashes injected
	rebuilds   uint64 // completed rebuilds (local replay or anti-entropy)
	corrupt    uint64 // times this replica was caught divergent/corrupt
	walHighest int    // high-water WAL length (diagnostics)
}

func newReplica(idx, checkpointEvery int) *replica {
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	return &replica{idx: idx, live: true, state: newRepState(), checkpointEvery: checkpointEvery}
}

// append journals one record — already sealed by the store, once for
// all replicas — and applies it to the live state, checkpointing when
// the log reaches the trigger length (reported by the return value).
// cm/self are the cbuf access needed to re-checksum trimmed extents.
func (r *replica) append(rec walRecord, cm *cbuf.Manager, self cbuf.ComponentID) bool {
	r.wal = append(r.wal, rec)
	r.writes++
	if len(r.wal) > r.walHighest {
		r.walHighest = len(r.wal)
	}
	r.apply(&rec, cm, self)
	if len(r.wal) >= r.checkpointEvery {
		// Encode into the scratch buffer, then swap: the new image
		// becomes the checkpoint and the superseded one (owned by this
		// replica alone) becomes the next scratch buffer.
		img := r.state.encodeInto(r.enc[:0])
		if r.cp == nil {
			r.cp = &checkpoint{}
		}
		r.enc = r.cp.img[:0]
		r.cp.img, r.cp.sum = img, sum32(img)
		r.wal = r.wal[:0]
		return true
	}
	return false
}

// apply executes one record against the live state. Both the write path
// and log replay go through here, so a replayed replica converges on the
// exact state the journaled writes built.
func (r *replica) apply(rec *walRecord, cm *cbuf.Manager, self cbuf.ComponentID) {
	k := key{rec.class, rec.id}
	switch rec.op {
	case opRecordCreator:
		meta := make([]kernel.Word, len(rec.meta))
		copy(meta, rec.meta)
		r.state.creators[k] = CreatorRecord{Creator: rec.creator, Meta: meta}
	case opRemoveCreator:
		delete(r.state.creators, k)
		delete(r.state.remap, k)
	case opRemap:
		if rec.id == rec.now {
			return
		}
		r.state.remap[k] = rec.now
		if cr, ok := r.state.creators[k]; ok {
			delete(r.state.creators, k)
			r.state.creators[key{rec.class, rec.now}] = cr
		}
		if sl, ok := r.state.slices[k]; ok {
			delete(r.state.slices, k)
			r.state.slices[key{rec.class, rec.now}] = sl
		}
	case opSaveSlice:
		r.state.slices[k] = append(r.state.slices[k], rec.slice)
	case opTruncate:
		var kept []Slice
		for _, sl := range r.state.slices[k] {
			if sl.Offset >= rec.size {
				continue
			}
			if sl.Offset+sl.Length > rec.size {
				sl.Length = rec.size - sl.Offset
				// Re-capture the checksum over the surviving prefix so the
				// trim is not misread as corruption (same discipline as the
				// single-copy Truncate).
				if data, err := cm.Read(sl.Cbuf, self, sl.CbufOff, sl.Length); err == nil {
					sl.Sum = sum32(data)
				}
			}
			kept = append(kept, sl)
		}
		r.state.slices[k] = kept
	case opDrop:
		delete(r.state.slices, k)
	}
}

// crash fail-stops the replica: the in-memory state is lost, the durable
// WAL + checkpoint images survive.
func (r *replica) crash() {
	r.live = false
	r.crashes++
	r.state = newRepState()
}

// restoreResult classifies one local rebuild attempt.
type restoreResult int

const (
	// restoreClean: checkpoint and every log record verified; the replica
	// replayed to exactly its pre-crash state.
	restoreClean restoreResult = iota
	// restoreCorrupt: the checkpoint or a log record failed its checksum;
	// the replica needs an anti-entropy copy from a quorum peer.
	restoreCorrupt
)

// restore µ-reboots the replica from its own durable images: restore the
// last checkpoint (if any), then replay the WAL. It verifies every
// checksum on the way; a mismatch anywhere aborts with restoreCorrupt
// and leaves the replica rebuilt only up to the valid prefix (the quorum
// layer then repairs it from a peer). Returns the result and the number
// of log records replayed.
func (r *replica) restore(cm *cbuf.Manager, self cbuf.ComponentID) (restoreResult, int) {
	r.live = true
	if r.cp == nil {
		r.state = newRepState()
	} else if st, err := r.cp.open(); err == nil {
		r.state = st // the decoded checkpoint is the whole state: no empty one first
	} else {
		r.state = newRepState()
		return restoreCorrupt, 0
	}
	for i := range r.wal {
		var ok bool
		if r.enc, ok = r.wal[i].verifyInto(r.enc); !ok {
			return restoreCorrupt, i
		}
		r.apply(&r.wal[i], cm, self)
	}
	return restoreClean, len(r.wal)
}

// adopt replaces the replica's entire contents (state, WAL, checkpoint)
// with deep copies of a donor's — the anti-entropy transfer that repairs
// a divergent or corrupt replica from the quorum.
func (r *replica) adopt(donor *replica) {
	r.state = donor.state.clone()
	r.wal = make([]walRecord, len(donor.wal))
	for i, rec := range donor.wal {
		rec.meta = append([]kernel.Word(nil), rec.meta...)
		r.wal[i] = rec
	}
	r.cp = nil
	if donor.cp != nil {
		r.cp = &checkpoint{img: append([]byte(nil), donor.cp.img...), sum: donor.cp.sum}
	}
	r.live = true
	r.suspect = false
}
