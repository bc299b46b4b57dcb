// Package binding is the consumer side of the six system services under
// each interface-stub configuration the evaluation compares: raw component
// invocations (no tracking, no recovery), the hand-written C³ stubs, and the
// SuperGlue typed clients. One program written against the interfaces below
// runs under any kind, so the Fig. 6 micro-ops and the Fig. 7 web server
// measure the same calls; only the fault-tolerance configuration changes.
package binding

import (
	"fmt"

	"superglue/internal/c3"
	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// Kind selects how a client reaches the services.
type Kind int

// Binding kinds, in the order the evaluation's tables list them.
const (
	// Base is the raw component invocation with no stub logic (Fig. 6's
	// "base" column, Fig. 7's "COMPOSITE base" bar).
	Base Kind = iota + 1
	// C3 is the hand-written C³ stubs.
	C3
	// SuperGlue is the IDL-compiled SuperGlue typed clients.
	SuperGlue
)

// Kinds lists every binding kind in table order.
func Kinds() []Kind { return []Kind{Base, C3, SuperGlue} }

// String implements fmt.Stringer; the names are the benchmark row suffixes.
func (k Kind) String() string {
	switch k {
	case Base:
		return "base"
	case C3:
		return "c3"
	case SuperGlue:
		return "superglue"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Recovers reports whether the kind rebuilds a failed server's state; the
// raw binding surfaces every fault to its caller.
func (k Kind) Recovers() bool { return k == C3 || k == SuperGlue }

// FS is the filesystem surface.
type FS interface {
	Open(t *kernel.Thread, path string) (kernel.Word, error)
	Read(t *kernel.Thread, fd kernel.Word, n int) ([]byte, error)
	Lseek(t *kernel.Thread, fd kernel.Word, offset int) (int, error)
	Close(t *kernel.Thread, fd kernel.Word) error
	Write(t *kernel.Thread, fd kernel.Word, data []byte) (int, error)
}

// Lock is the mutual-exclusion surface.
type Lock interface {
	Alloc(t *kernel.Thread) (kernel.Word, error)
	Take(t *kernel.Thread, id kernel.Word) error
	Release(t *kernel.Thread, id kernel.Word) error
}

// Event is the event-notification surface.
type Event interface {
	Split(t *kernel.Thread, parent, grp kernel.Word) (kernel.Word, error)
	Wait(t *kernel.Thread, id kernel.Word) (kernel.Word, error)
	Trigger(t *kernel.Thread, id kernel.Word) (kernel.Word, error)
}

// Sched is the thread block/wakeup surface.
type Sched interface {
	Setup(t *kernel.Thread, prio int) (kernel.Word, error)
	Blk(t *kernel.Thread) error
	Wakeup(t *kernel.Thread, tid kernel.ThreadID) error
}

// Timer is the periodic-timer surface.
type Timer interface {
	Alloc(t *kernel.Thread, period kernel.Time) (kernel.Word, error)
	Wait(t *kernel.Thread, id kernel.Word) (kernel.Time, error)
}

// MM is the memory-manager surface: a root page in the calling component,
// an alias of it into another component, and its release.
type MM interface {
	GetPage(t *kernel.Thread, vaddr kernel.Word) (kernel.Word, error)
	AliasPage(t *kernel.Thread, srcVaddr kernel.Word, dstSpd kernel.ComponentID, dstVaddr kernel.Word) (kernel.Word, error)
	ReleasePage(t *kernel.Thread, vaddr kernel.Word) error
}

// The C³ stubs and the SuperGlue typed clients are bindings as they stand;
// only the C³ MM stub, whose calls name the calling component, is adapted.
var (
	_ FS    = (*c3.FSStub)(nil)
	_ FS    = (*ramfs.Client)(nil)
	_ Lock  = (*c3.LockStub)(nil)
	_ Lock  = (*lock.Client)(nil)
	_ Event = (*c3.EventStub)(nil)
	_ Event = (*event.Client)(nil)
	_ Sched = (*c3.SchedStub)(nil)
	_ Sched = (*sched.Client)(nil)
	_ Timer = (*c3.TimerStub)(nil)
	_ Timer = (*timer.Client)(nil)
	_ MM    = c3MM{}
	_ MM    = (*mm.Client)(nil)
)

// Client is one application component bound under one kind. Its accessors
// bind a single service each, so a rig that registers one server binds
// only that one.
type Client struct {
	kind Kind
	sys  *core.System
	cl   *core.Client // Base and SuperGlue
	c3   *c3.Client   // C3
}

// NewClient registers the application component name on sys and returns
// its bindings under kind.
func NewClient(sys *core.System, kind Kind, name string) (*Client, error) {
	c := &Client{kind: kind, sys: sys}
	var err error
	switch kind {
	case Base, SuperGlue:
		c.cl, err = sys.NewClient(name)
	case C3:
		c.c3, err = c3.NewClient(sys, name)
	default:
		err = fmt.Errorf("binding: unknown kind %d", int(kind))
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the application component's ID.
func (c *Client) ID() kernel.ComponentID {
	if c.c3 != nil {
		return c.c3.ID()
	}
	return c.cl.ID()
}

// FS binds the filesystem served by server.
func (c *Client) FS(server kernel.ComponentID) (FS, error) {
	switch c.kind {
	case C3:
		return c3.NewFSStub(c.c3, server), nil
	case SuperGlue:
		return ramfs.NewClient(c.cl, server)
	}
	return &baseFS{invoker: c.invoker(server), cm: c.sys.Cbufs(), pathBufs: make(map[string]cbuf.ID)}, nil
}

// Lock binds the lock service served by server.
func (c *Client) Lock(server kernel.ComponentID) (Lock, error) {
	switch c.kind {
	case C3:
		return c3.NewLockStub(c.c3, server), nil
	case SuperGlue:
		return lock.NewClient(c.cl, server)
	}
	return &baseLock{c.invoker(server)}, nil
}

// Event binds the event manager served by server.
func (c *Client) Event(server kernel.ComponentID) (Event, error) {
	switch c.kind {
	case C3:
		return c3.NewEventStub(c.c3, server)
	case SuperGlue:
		return event.NewClient(c.cl, server)
	}
	return &baseEvent{c.invoker(server)}, nil
}

// Sched binds the scheduler served by server.
func (c *Client) Sched(server kernel.ComponentID) (Sched, error) {
	switch c.kind {
	case C3:
		return c3.NewSchedStub(c.c3, server), nil
	case SuperGlue:
		return sched.NewClient(c.cl, server)
	}
	return &baseSched{c.invoker(server)}, nil
}

// Timer binds the timer manager served by server.
func (c *Client) Timer(server kernel.ComponentID) (Timer, error) {
	switch c.kind {
	case C3:
		return c3.NewTimerStub(c.c3, server), nil
	case SuperGlue:
		return timer.NewClient(c.cl, server)
	}
	return &baseTimer{c.invoker(server)}, nil
}

// MM binds the memory manager served by server.
func (c *Client) MM(server kernel.ComponentID) (MM, error) {
	switch c.kind {
	case C3:
		return c3MM{c3.NewMMStub(c.c3, server), c.c3.ID()}, nil
	case SuperGlue:
		return mm.NewClient(c.cl, server)
	}
	return &baseMM{c.invoker(server)}, nil
}

// c3MM names the calling component in the C³ stub's explicit-spd calls,
// which the typed client's page-relative calls leave implicit.
type c3MM struct {
	*c3.MMStub
	self kernel.ComponentID
}

func (m c3MM) AliasPage(t *kernel.Thread, srcVaddr kernel.Word, dstSpd kernel.ComponentID, dstVaddr kernel.Word) (kernel.Word, error) {
	return m.Alias(t, m.self, srcVaddr, dstSpd, dstVaddr)
}

func (m c3MM) ReleasePage(t *kernel.Thread, vaddr kernel.Word) error {
	return m.Release(t, m.self, vaddr)
}
