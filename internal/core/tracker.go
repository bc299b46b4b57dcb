package core

import (
	"fmt"
	"sort"

	"superglue/internal/kernel"
	"superglue/internal/obs"
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
	// HoldFn is the hold function whose return the thread has not yet
	// released, or "" when the thread holds nothing through this
	// descriptor.
	HoldFn string
	// Args are the arguments of the outstanding hold call.
	Args []kernel.Word
	// Epoch is the server epoch in which the hold was last established.
	Epoch uint64
}

// Descriptor is the client-side tracking structure for one descriptor: the
// bounded state-machine summary that replaces an unbounded operation log
// (§II-C). It records the current state, the tracked meta-data D_dr, the
// dependency links, and the arguments needed to replay the recovery walk.
type Descriptor struct {
	// Key is the client-visible identity; stable across server reboots.
	Key DescKey
	// ServerID is the ID the server currently knows the descriptor by.
	// It starts equal to Key.ID and is refreshed when a recovery replay
	// obtains a new server-assigned ID.
	ServerID kernel.Word
	// State is the shared descriptor state (a StateMachine state).
	State string
	// CreatedBy is the creation function that produced the descriptor,
	// replayed first on recovery.
	CreatedBy string
	// createdFn is CreatedBy interned for the recovery spans' trace events.
	createdFn obs.FnID
	// Data is D_dr: tracked desc_data values by parameter name.
	Data map[string]kernel.Word
	// LastArgs records the most recent argument list per interface
	// function, the bounded data recovery replays with.
	LastArgs map[string][]kernel.Word
	// Epoch is the server epoch the descriptor was last synchronized with.
	Epoch uint64
	// Parent is the descriptor this one depends on (P_dr ≠ Solo), and
	// ParentStub the client stub tracking it (which may belong to another
	// client component when P_dr = XCParent).
	Parent     *Descriptor
	ParentStub *ClientStub
	// Children are descriptors created with this one as parent.
	Children []*Descriptor
	// PerThread tracks hold state per thread.
	PerThread map[kernel.ThreadID]*threadTrack
	// Closed marks descriptors whose terminal function ran but whose
	// tracking data is retained for their children (¬Y_dr ∧ ¬C_dr).
	Closed bool

	// recovering marks a recovery walk in progress. On a multi-core
	// machine the walking thread can park mid-walk (at a µ-reboot boot
	// gate, or blocking inside a hold replay), so without an owner flag a
	// second thread could pass the epoch check, replay the walk again,
	// and clobber the recovered server identity the first walker already
	// published. Later arrivals park on recoverWaiters until the walker
	// finishes, then re-check the epoch.
	recovering     bool
	recoverWaiters []kernel.ThreadID
}

// newDescriptor builds a fresh tracking structure. dataHint and fnHint
// pre-size the Data and LastArgs maps from the interface specification
// (number of distinct desc_data names and of interface functions), so the
// maps never rehash during tracking.
func newDescriptor(key DescKey, createdBy string, createdFn obs.FnID, epoch uint64, dataHint, fnHint int) *Descriptor {
	return &Descriptor{
		Key:       key,
		ServerID:  key.ID,
		State:     StateInitial,
		CreatedBy: createdBy,
		createdFn: createdFn,
		Data:      make(map[string]kernel.Word, dataHint),
		LastArgs:  make(map[string][]kernel.Word, fnHint),
		PerThread: make(map[kernel.ThreadID]*threadTrack),
		Epoch:     epoch,
	}
}

// recordArgs stores a copy of args as the latest invocation of fn, reusing
// the previous buffer when the arity is unchanged (the common case).
func (d *Descriptor) recordArgs(fn string, args []kernel.Word) {
	if prev, ok := d.LastArgs[fn]; ok && len(prev) == len(args) {
		copy(prev, args)
		return
	}
	cp := make([]kernel.Word, len(args))
	copy(cp, args)
	d.LastArgs[fn] = cp
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
	spec  *Spec
	descs map[DescKey]*Descriptor
	// One-entry lookup cache: stub calls overwhelmingly target the
	// descriptor they targeted last (the steady-state wakeup/block pair
	// hits one descriptor repeatedly), and DescKey's 16-byte map hash is
	// measurable on that path. last is non-nil only while it aliases the
	// live table entry for lastKey; Insert and Remove keep it coherent.
	lastKey DescKey
	last    *Descriptor
}

// newTracker builds an empty tracker for an interface.
func newTracker(spec *Spec) *Tracker {
	return &Tracker{spec: spec, descs: make(map[DescKey]*Descriptor)}
}

// Lookup finds a descriptor by key.
func (t *Tracker) Lookup(key DescKey) (*Descriptor, bool) {
	if t.last != nil && t.lastKey == key {
		return t.last, true
	}
	d, ok := t.descs[key]
	if ok {
		t.lastKey, t.last = key, d
	}
	return d, ok
}

// LookupByServerID finds the live descriptor currently known to the server
// by sid. Used by upcall-driven recovery, which receives server-side IDs.
func (t *Tracker) LookupByServerID(sid kernel.Word) (*Descriptor, bool) {
	// A server that leaks the same sid for two live descriptors would make
	// first-match lookup depend on map iteration order; collect and sort by
	// key so replay always resolves the same descriptor.
	var matches []*Descriptor
	for _, d := range t.descs {
		if d.ServerID == sid && !d.Closed {
			matches = append(matches, d)
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Key.NS != matches[j].Key.NS {
			return matches[i].Key.NS < matches[j].Key.NS
		}
		return matches[i].Key.ID < matches[j].Key.ID
	})
	if len(matches) == 0 {
		return nil, false
	}
	return matches[0], true
}

// Insert adds a fresh descriptor; replacing a live one is a tracking bug.
func (t *Tracker) Insert(d *Descriptor) error {
	if old, ok := t.descs[d.Key]; ok && !old.Closed {
		return fmt.Errorf("core: descriptor %v already tracked", d.Key)
	}
	t.descs[d.Key] = d
	t.lastKey, t.last = d.Key, d
	return nil
}

// Remove deletes a descriptor's tracking data.
func (t *Tracker) Remove(key DescKey) {
	if t.last != nil && t.lastKey == key {
		t.last = nil
	}
	delete(t.descs, key)
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.NS != out[j].Key.NS {
			return out[i].Key.NS < out[j].Key.NS
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}

// Len returns the number of tracked descriptors (including closed ones whose
// metadata is retained for children).
func (t *Tracker) Len() int { return len(t.descs) }
