// Package cbuf implements the zero-copy shared-buffer subsystem ("cbufs",
// Ren et al., ISMM 2016) that COMPOSITE uses to move bulk data between
// components without copying.
//
// A cbuf is a fixed-size buffer owned by the producing component, which has
// write access; every other component that maps the buffer sees it read-only.
// This access restriction is what prevents fault propagation through shared
// buffers: a faulty consumer cannot corrupt data in flight, so the storage
// component can trust the slices it retains for recovery (mechanism G1).
//
// Like the kernel, the cbuf manager is part of the trusted computing base of
// the paper's design (§II-E): it is not a fault-injection target, and
// SuperGlue does not attempt to recover it.
package cbuf

import (
	"errors"
	"fmt"
)

// ID names one buffer. IDs are never reused within a manager's lifetime, so
// a stale reference is detected rather than silently aliased.
type ID int64

// ComponentID mirrors kernel.ComponentID without importing it; the cbuf
// manager sits below the kernel's component layer.
type ComponentID int32

// Manager allocates and tracks shared buffers. Like the kernel's own state
// it is machine-owned plain memory: only code running inside the machine
// (or before and after its run) touches it. Construct with NewManager.
type Manager struct {
	next  ID
	bufs  map[ID]*buffer
	quota int // bytes; 0 means unlimited
	inUse int
}

type buffer struct {
	owner     ComponentID
	data      []byte
	readers   map[ComponentID]bool
	delegates map[ComponentID]bool
	freed     bool
}

// Errors reported by the manager.
var (
	// ErrNoSuchBuffer reports an unknown or already-freed buffer ID.
	ErrNoSuchBuffer = errors.New("cbuf: no such buffer")
	// ErrNotOwner reports a write attempt by a component that does not own
	// the buffer (read-only mapping).
	ErrNotOwner = errors.New("cbuf: component does not have write access")
	// ErrNotMapped reports a read by a component that never mapped the
	// buffer.
	ErrNotMapped = errors.New("cbuf: buffer not mapped into component")
	// ErrQuota reports allocation beyond the configured memory quota.
	ErrQuota = errors.New("cbuf: allocation exceeds quota")
	// ErrBadRange reports an out-of-bounds buffer access.
	ErrBadRange = errors.New("cbuf: access out of range")
)

// NewManager returns a Manager with an optional byte quota (0 = unlimited).
func NewManager(quota int) *Manager {
	return &Manager{bufs: make(map[ID]*buffer), quota: quota}
}

// Alloc creates a buffer of size bytes owned (writable) by owner. The owner
// is implicitly mapped.
func (m *Manager) Alloc(owner ComponentID, size int) (ID, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cbuf: invalid size %d", size)
	}
	if m.quota > 0 && m.inUse+size > m.quota {
		return 0, fmt.Errorf("%w: %d bytes requested, %d available", ErrQuota, size, m.quota-m.inUse)
	}
	m.next++
	id := m.next
	m.bufs[id] = &buffer{
		owner:   owner,
		data:    make([]byte, size),
		readers: map[ComponentID]bool{owner: true},
	}
	m.inUse += size
	return id, nil
}

// Map grants component comp read-only access to buffer id.
func (m *Manager) Map(id ID, comp ComponentID) error {
	b, err := m.get(id)
	if err != nil {
		return err
	}
	b.readers[comp] = true
	return nil
}

// Write copies data into the buffer at off. Only the owning component may
// write — consumers hold read-only mappings.
func (m *Manager) Write(id ID, writer ComponentID, off int, data []byte) error {
	b, err := m.get(id)
	if err != nil {
		return err
	}
	if b.owner != writer && !b.delegates[writer] {
		return fmt.Errorf("%w: buffer %d owned by %d, write from %d", ErrNotOwner, id, b.owner, writer)
	}
	if off < 0 || off+len(data) > len(b.data) {
		return fmt.Errorf("%w: write [%d, %d) into %d-byte buffer", ErrBadRange, off, off+len(data), len(b.data))
	}
	copy(b.data[off:], data)
	return nil
}

// Read copies length bytes starting at off into a fresh slice. The reader
// must have mapped the buffer. Returning a copy preserves the read-only
// discipline at the package boundary.
func (m *Manager) Read(id ID, reader ComponentID, off, length int) ([]byte, error) {
	b, err := m.get(id)
	if err != nil {
		return nil, err
	}
	if !b.readers[reader] {
		return nil, fmt.Errorf("%w: buffer %d, component %d", ErrNotMapped, id, reader)
	}
	if off < 0 || length < 0 || off+length > len(b.data) {
		return nil, fmt.Errorf("%w: read [%d, %d) from %d-byte buffer", ErrBadRange, off, off+length, len(b.data))
	}
	out := make([]byte, length)
	copy(out, b.data[off:])
	return out, nil
}

// Delegate lets the owner grant temporary write access to another component,
// the pattern a client uses to let a server fill a result buffer (e.g., a
// file read). Only the owner may delegate; Revoke withdraws the grant.
// Delegation is the one deliberate exception to the producer-only-write
// rule, scoped to scratch result buffers that recovery never depends on.
func (m *Manager) Delegate(id ID, owner, delegate ComponentID) error {
	b, err := m.get(id)
	if err != nil {
		return err
	}
	if b.owner != owner {
		return fmt.Errorf("%w: buffer %d owned by %d, delegate from %d", ErrNotOwner, id, b.owner, owner)
	}
	if b.delegates == nil {
		b.delegates = make(map[ComponentID]bool)
	}
	b.delegates[delegate] = true
	b.readers[delegate] = true
	return nil
}

// Revoke withdraws a write delegation.
func (m *Manager) Revoke(id ID, owner, delegate ComponentID) error {
	b, err := m.get(id)
	if err != nil {
		return err
	}
	if b.owner != owner {
		return fmt.Errorf("%w: buffer %d owned by %d, revoke from %d", ErrNotOwner, id, b.owner, owner)
	}
	delete(b.delegates, delegate)
	return nil
}

// Size returns the buffer's capacity in bytes.
func (m *Manager) Size(id ID) (int, error) {
	b, err := m.get(id)
	if err != nil {
		return 0, err
	}
	return len(b.data), nil
}

// Owner returns the component with write access to the buffer.
func (m *Manager) Owner(id ID) (ComponentID, error) {
	b, err := m.get(id)
	if err != nil {
		return 0, err
	}
	return b.owner, nil
}

// Free releases the buffer. Further access fails with ErrNoSuchBuffer.
func (m *Manager) Free(id ID, owner ComponentID) error {
	b, err := m.get(id)
	if err != nil {
		return err
	}
	if b.owner != owner {
		return fmt.Errorf("%w: buffer %d owned by %d, free from %d", ErrNotOwner, id, b.owner, owner)
	}
	b.freed = true
	m.inUse -= len(b.data)
	delete(m.bufs, id)
	return nil
}

// InUse returns the total bytes currently allocated.
func (m *Manager) InUse() int { return m.inUse }

func (m *Manager) get(id ID) (*buffer, error) {
	b, ok := m.bufs[id]
	if !ok || b.freed {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBuffer, id)
	}
	return b, nil
}
