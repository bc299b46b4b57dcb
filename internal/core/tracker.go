package core

import (
	"cmp"
	"fmt"
	"slices"

	"superglue/internal/kernel"
)

// DescKey identifies a descriptor within one client's tracker: the raw
// descriptor ID, qualified by a namespace for services whose IDs are only
// unique per protection domain (RoleDescNS); NS is zero otherwise.
type DescKey struct {
	NS kernel.Word
	ID kernel.Word
}

// String implements fmt.Stringer.
func (k DescKey) String() string {
	if k.NS == 0 {
		return fmt.Sprintf("d%d", k.ID)
	}
	return fmt.Sprintf("d%d@%d", k.ID, k.NS)
}

// threadTrack is the per-thread slice of a descriptor's tracked state, used
// for hold/release pairs (e.g., which thread holds a lock) so that recovery
// re-acquires on behalf of the holder and re-contends for waiters.
type threadTrack struct {
	tid kernel.ThreadID
	// hold is the hold function whose return the thread has not yet
	// released, or nil when the thread holds nothing through this
	// descriptor.
	hold *fnInfo
	// args are the arguments of the outstanding hold call.
	args []kernel.Word
	// epoch is the server epoch in which the hold was last established.
	epoch uint64
}

// Descriptor is the client-side tracking structure for one descriptor: the
// bounded state-machine summary that replaces an unbounded operation log
// (§II-C). It records the current state, the tracked meta-data D_dr, the
// dependency links, and the arguments needed to replay the recovery walk.
// Its layout is fixed by the compiled interface, as a C stub's descriptor
// struct is: states and functions are numbers, and D_dr and the replayed
// arguments share one arena indexed by compiled slots.
type Descriptor struct {
	// Key is the client-visible identity; stable across server reboots.
	Key DescKey
	// ServerID is the ID the server currently knows the descriptor by.
	// It starts equal to Key.ID and is refreshed when a recovery replay
	// obtains a new server-assigned ID.
	ServerID kernel.Word
	// Epoch is the server epoch the descriptor was last synchronized with.
	Epoch uint64
	// Parent is the descriptor this one depends on (P_dr ≠ Solo), and
	// ParentStub the client stub tracking it (which may belong to another
	// client component when P_dr = XCParent).
	Parent     *Descriptor
	ParentStub *ClientStub
	// Children are descriptors created with this one as parent.
	Children []*Descriptor

	// createdBy is the creation function that produced the descriptor,
	// replayed first on recovery; its walks are the descriptor's recovery
	// walks by state.
	createdBy *fnInfo
	// arena holds D_dr by data slot, then the most recent argument list of
	// each function whose arguments recovery replays, at the function's
	// argOff: the bounded data recovery replays with. A slot never written
	// reads zero, as an absent value always has.
	arena []kernel.Word
	// perThread tracks hold state per thread, sorted by thread ID; entries
	// are reused across hold/release cycles and never removed.
	perThread []threadTrack

	// recovering marks a recovery walk in progress. On a multi-core
	// machine the walking thread can park mid-walk (at a µ-reboot boot
	// gate, or blocking inside a hold replay), so without an owner flag a
	// second thread could pass the epoch check, replay the walk again,
	// and clobber the recovered server identity the first walker already
	// published. Later arrivals park on recoverWaiters until the walker
	// finishes, then re-check the epoch.
	recoverWaiters []kernel.ThreadID
	// state is the shared descriptor state, a number in the compiled
	// state machine.
	state int32
	// Closed marks descriptors whose terminal function ran but whose
	// tracking data is retained for their children (¬Y_dr ∧ ¬C_dr).
	Closed     bool
	recovering bool
}

// newDescriptor builds a fresh tracking structure in s0 for a descriptor
// the creation function createdBy just produced: the struct and its one
// arena are the only allocations.
func newDescriptor(key DescKey, createdBy *fnInfo, epoch uint64) *Descriptor {
	c := createdBy.c
	return &Descriptor{
		Key:       key,
		ServerID:  key.ID,
		Epoch:     epoch,
		state:     int32(c.sm.initial),
		createdBy: createdBy,
		arena:     make([]kernel.Word, c.arenaLen),
	}
}

// State returns the name of the descriptor's shared state.
func (d *Descriptor) State() string { return d.createdBy.c.sm.names[d.state] }

// DataValue returns the tracked D_dr value of a desc_data name, and
// whether the interface tracks that name. A tracked value never written
// is zero.
func (d *Descriptor) DataValue(name string) (kernel.Word, bool) {
	i := d.createdBy.c.dataSlot(name)
	if i < 0 {
		return 0, false
	}
	return d.arena[i], true
}

// record stores a call's desc_data values and, for a function recovery
// replays, its argument list.
func (d *Descriptor) record(info *fnInfo, args []kernel.Word) {
	if info.argOff >= 0 {
		copy(d.arena[info.argOff:], args)
	}
	for _, dp := range info.data {
		d.arena[dp.slot] = args[dp.param]
	}
}

// thread returns the index of tid's per-thread entry, or where to insert
// it and false.
func (d *Descriptor) thread(tid kernel.ThreadID) (int, bool) {
	for i := range d.perThread {
		if d.perThread[i].tid >= tid {
			return i, d.perThread[i].tid == tid
		}
	}
	return len(d.perThread), false
}

// holdEntry returns tid's per-thread entry, inserting an empty one in
// thread order on the thread's first hold.
func (d *Descriptor) holdEntry(tid kernel.ThreadID) *threadTrack {
	i, ok := d.thread(tid)
	if !ok {
		d.perThread = slices.Insert(d.perThread, i, threadTrack{tid: tid})
	}
	return &d.perThread[i]
}

// unhold marks tid as holding nothing through the descriptor.
func (d *Descriptor) unhold(tid kernel.ThreadID) {
	if i, ok := d.thread(tid); ok {
		d.perThread[i].hold = nil
	}
}

// removeChild unlinks c from d's child list.
func (d *Descriptor) removeChild(c *Descriptor) {
	for i, got := range d.Children {
		if got == c {
			d.Children = append(d.Children[:i], d.Children[i+1:]...)
			return
		}
	}
}

// Tracker is one client component's descriptor table for one server
// interface: the per-interface tracking state a client-side stub maintains
// (the small bold black squares of Fig. 1(b)).
type Tracker struct {
	descs map[DescKey]*Descriptor
	// A two-entry lookup cache, most recent first: stub calls
	// overwhelmingly target the descriptors they targeted last (the
	// steady-state wakeup/block pair hits one descriptor repeatedly, and
	// an alias/release loop alternates a long-lived parent with a child
	// key that is removed and created again), and DescKey's 16-byte map
	// hash is measurable on that path. Each entry is the table's answer
	// for its key, nil when the key is absent; the zero entries say so of
	// an empty table. Lookup, Insert and Remove keep them coherent.
	cache [2]trackerEntry
}

// trackerEntry is one cached table answer.
type trackerEntry struct {
	key DescKey
	d   *Descriptor
}

// newTracker builds an empty tracker.
func newTracker() *Tracker {
	return &Tracker{descs: make(map[DescKey]*Descriptor)}
}

// Lookup finds a descriptor by key.
func (t *Tracker) Lookup(key DescKey) (*Descriptor, bool) {
	if e := t.cache[0]; e.key == key {
		return e.d, e.d != nil
	}
	d := t.cache[1].d
	if t.cache[1].key != key {
		d = t.descs[key]
	}
	t.remember(key, d)
	return d, d != nil
}

// remember makes d, nil when absent, the most recent cached answer for
// key, dropping any older entry for it.
func (t *Tracker) remember(key DescKey, d *Descriptor) {
	if t.cache[0].key != key {
		t.cache[1] = t.cache[0]
	}
	t.cache[0] = trackerEntry{key: key, d: d}
}

// LookupByServerID finds the live descriptor currently known to the server
// by sid. Used by upcall-driven recovery, which receives server-side IDs.
func (t *Tracker) LookupByServerID(sid kernel.Word) (*Descriptor, bool) {
	// A server that leaks the same sid for two live descriptors would make
	// first-match lookup depend on map iteration order; take the smallest
	// key among the matches so replay always resolves the same descriptor.
	// There is almost always one match, so the matches stay on the stack.
	var buf [4]*Descriptor
	matches := buf[:0]
	for _, d := range t.descs {
		if d.ServerID == sid && !d.Closed {
			matches = append(matches, d)
		}
	}
	if len(matches) == 0 {
		return nil, false
	}
	return slices.MinFunc(matches, byKey), true
}

// byKey orders descriptors by key, (NS, ID).
func byKey(a, b *Descriptor) int {
	if c := cmp.Compare(a.Key.NS, b.Key.NS); c != 0 {
		return c
	}
	return cmp.Compare(a.Key.ID, b.Key.ID)
}

// Insert adds a fresh descriptor; replacing a live one is a tracking bug.
func (t *Tracker) Insert(d *Descriptor) error {
	if old, ok := t.Lookup(d.Key); ok && !old.Closed {
		return fmt.Errorf("core: descriptor %v already tracked", d.Key)
	}
	t.descs[d.Key] = d
	t.remember(d.Key, d)
	return nil
}

// Remove deletes a descriptor's tracking data.
func (t *Tracker) Remove(key DescKey) {
	delete(t.descs, key)
	t.remember(key, nil)
}

// Live returns all non-closed descriptors, ordered by key for deterministic
// eager recovery.
func (t *Tracker) Live() []*Descriptor {
	out := make([]*Descriptor, 0, len(t.descs))
	for _, d := range t.descs {
		if !d.Closed {
			out = append(out, d)
		}
	}
	slices.SortFunc(out, byKey)
	return out
}

// Len returns the number of tracked descriptors (including closed ones whose
// metadata is retained for children).
func (t *Tracker) Len() int { return len(t.descs) }
