package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the function-name table behind Event.Fn. An
// event names its interface function (or a marker such as "xcall") by a
// FnID, an index into one process-wide, append-only table of names, so
// an Event holds no pointer: the GC never scans a ring or a campaign's
// rolling stream, and copying events runs no write barrier. Names are
// interned where they are bound (compiled spec functions, the kernel's
// and the store's markers), so the invocation path records an ID and
// hashes no string. The JSON encoding maps IDs back to names, so every
// trace, checkpoint and shard file is byte-identical to the string form.
//
// IDs depend on the order names were interned in, which differs from
// process to process; they never leave the process. Only names are
// written out.

// FnID identifies a function name in trace events: an index into the
// process-wide name table. ID 0 is the empty name.
type FnID uint16

// MaxFnNames caps the function-name table: FnIDs are below it.
const MaxFnNames = 1 << 12

// MaxDecodedFnNames bounds the table while it grows by decoding, so a
// trace or campaign file (untrusted input) can fill at most this many
// slots; the rest stay for names the program binds (FnOf). A program
// binds a few hundred names at most.
const MaxDecodedFnNames = MaxFnNames / 2

// FnTableFullError reports a name that could not be interned because
// the table reached its bound.
type FnTableFullError struct {
	// Name is the name that did not fit.
	Name string
	// Limit is the bound the table reached.
	Limit int
}

// Error implements error.
func (e *FnTableFullError) Error() string {
	return fmt.Sprintf("obs: function-name table full (%d names): cannot intern %q", e.Limit, e.Name)
}

// The constant markers obs records itself, interned first, in this
// order, so their IDs are constants.
const (
	fnXCall FnID = iota + 1
	fnMigrate
	fnStorageRebuild
	fnStorageAntiEntropy
	fnStorageRepair
	fnStorageQuorumLost
)

// fnTable is an append-only name table. names[i] is written once, under
// mu, before count is raised past i, so a reader that loads count (or got
// an ID from intern) reads names[i] without a lock. ids is replaced (copy
// on write) under mu and read through an atomic pointer, so a lookup by
// name takes no lock either.
type fnTable struct {
	mu    sync.Mutex
	names [MaxFnNames]string
	count atomic.Uint32
	ids   atomic.Pointer[map[string]FnID]
}

// fnNames is the process-wide table every FnID indexes.
var fnNames fnTable

func init() {
	for i, name := range []string{"", XCallFn, MigrateFn, StorageRebuildFn,
		StorageAntiEntropyFn, StorageRepairFn, StorageQuorumLostFn} {
		if FnOf(name) != FnID(i) {
			panic("obs: marker " + name + " interned out of order")
		}
	}
}

// FnOf returns name's FnID, interning it on first use. Bind a name once
// (a package variable, a compiled table) and record with the ID. It
// panics if the program binds more than MaxFnNames names, which no
// decode can cause (see MaxDecodedFnNames).
func FnOf(name string) FnID {
	id, err := fnNames.intern(name, MaxFnNames)
	if err != nil {
		panic(err)
	}
	return id
}

// intern returns name's ID, adding it to the table while the table
// holds fewer than limit names.
func (tb *fnTable) intern(name string, limit int) (FnID, error) {
	if ids := tb.ids.Load(); ids != nil {
		if id, ok := (*ids)[name]; ok {
			return id, nil
		}
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	var old map[string]FnID
	if p := tb.ids.Load(); p != nil {
		old = *p
	}
	if id, ok := old[name]; ok {
		return id, nil
	}
	n := int(tb.count.Load())
	if n >= limit {
		return 0, &FnTableFullError{Name: name, Limit: limit}
	}
	ids := make(map[string]FnID, n+1)
	for k, v := range old {
		ids[k] = v
	}
	ids[name] = FnID(n)
	tb.names[n] = name
	tb.count.Store(uint32(n + 1))
	tb.ids.Store(&ids)
	return FnID(n), nil
}

// lookup returns the name of id, false if no name has that ID.
func (id FnID) lookup() (string, bool) {
	if uint32(id) >= fnNames.count.Load() {
		return "", false
	}
	return fnNames.names[id], true
}

// String returns the function name id stands for, or "FnID(n)" for an
// ID no name has.
func (id FnID) String() string {
	if name, ok := id.lookup(); ok {
		return name
	}
	return fmt.Sprintf("FnID(%d)", uint16(id))
}

// MarshalJSON encodes the ID as its name, exactly as a string field
// holding the name encodes. An ID no name has is an error.
func (id FnID) MarshalJSON() ([]byte, error) {
	name, ok := id.lookup()
	if !ok {
		return nil, fmt.Errorf("obs: unknown function id %d", uint16(id))
	}
	return json.Marshal(name)
}

// UnmarshalJSON decodes a function name and interns it. Decoding may
// grow the table only up to MaxDecodedFnNames; a new name beyond that
// is refused with a *FnTableFullError.
func (id *FnID) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("obs: function name %s: %w", data, err)
	}
	v, err := fnNames.intern(name, MaxDecodedFnNames)
	if err != nil {
		return err
	}
	*id = v
	return nil
}
