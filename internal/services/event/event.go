// Package event implements the event notification component: split (create)
// / wait / trigger / free over globally addressable event descriptors, the
// running example of the paper's Fig. 3. Events may form parent/child
// groups (evt_split takes a parent event), threads block in evt_wait, and a
// trigger from any component wakes them.
//
// Because descriptors are global (G_dr), the event manager exercises the
// full recovery stack: T0 eager wakeups, R0/T1 replay, D1 parent ordering,
// and G0/U0 creator-upcall recovery through the storage component — which is
// why Fig. 6(b) reports it as the most expensive service to recover.
package event

import (
	_ "embed"
	"fmt"
	"sync"

	"superglue/internal/core"
	"superglue/internal/gen/genevent"
	"superglue/internal/idl"
	"superglue/internal/kernel"
)

//go:embed event.sg
var idlSrc string

// Interface function names.
const (
	FnSplit   = "evt_split"
	FnWait    = "evt_wait"
	FnTrigger = "evt_trigger"
	FnFree    = "evt_free"
)

// spec parses the embedded IDL once per process.
var spec = sync.OnceValues(func() (*core.Spec, error) {
	return idl.Parse("event", idlSrc)
})

// Spec returns the component's parsed IDL specification. It is parsed
// once per process and shared: callers must not mutate the result.
func Spec() (*core.Spec, error) {
	return spec()
}

// IDLSource returns the raw IDL text.
func IDLSource() string { return idlSrc }

// Register boots the event component into a system.
func Register(sys *core.System) (kernel.ComponentID, error) {
	spec, err := Spec()
	if err != nil {
		return 0, err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &Server{} })
	if err != nil {
		return 0, err
	}
	// Watchdog budget: event operations walk waiter lists and groups.
	if err := sys.Kernel().SetInvokeBudget(comp, 300); err != nil {
		return 0, err
	}
	return comp, nil
}

// evtState is one event's server-side state.
type evtState struct {
	creator  kernel.Word
	parent   kernel.Word
	grp      kernel.Word
	pending  int // triggers not yet consumed by a wait
	waiters  []kernel.ThreadID
	children map[kernel.Word]bool
}

// Server is the event component's implementation.
type Server struct {
	k    *kernel.Kernel
	self kernel.ComponentID
	next kernel.Word
	evts map[kernel.Word]*evtState
}

var _ kernel.Service = (*Server)(nil)

// Name implements kernel.Service.
func (s *Server) Name() string { return "event" }

// Init implements kernel.Service.
func (s *Server) Init(bc *kernel.BootContext) error {
	s.k = bc.Kernel
	s.self = bc.Self
	s.evts = make(map[kernel.Word]*evtState)
	s.next = kernel.Word(bc.Epoch) << 20
	return nil
}

// Events returns the number of live events (reflection/testing).
func (s *Server) Events() int { return len(s.evts) }

// Dispatch implements kernel.Service.
func (s *Server) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("event: %s needs %d args, got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case FnSplit:
		if err := need(3); err != nil {
			return 0, err
		}
		parent := args[1]
		if parent > 0 {
			p, ok := s.evts[parent]
			if !ok {
				return 0, kernel.ErrInvalidDescriptor
			}
			defer func() { p.children[s.next] = true }()
		}
		s.next++
		s.evts[s.next] = &evtState{
			creator:  args[0],
			parent:   parent,
			grp:      args[2],
			children: make(map[kernel.Word]bool),
		}
		return s.next, nil
	case FnWait:
		if err := need(2); err != nil {
			return 0, err
		}
		return s.wait(t, args[1])
	case FnTrigger:
		if err := need(2); err != nil {
			return 0, err
		}
		return s.trigger(t, args[1])
	case FnFree:
		if err := need(2); err != nil {
			return 0, err
		}
		e, ok := s.evts[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		if len(e.waiters) > 0 {
			return 0, fmt.Errorf("event: freeing event %d with %d waiters", args[1], len(e.waiters))
		}
		if p, ok := s.evts[e.parent]; ok {
			delete(p.children, args[1])
		}
		delete(s.evts, args[1])
		return 0, nil
	default:
		return 0, kernel.DispatchError("event", fn)
	}
}

func (s *Server) wait(t *kernel.Thread, id kernel.Word) (kernel.Word, error) {
	e, ok := s.evts[id]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	if e.pending == 0 {
		e.waiters = append(e.waiters, t.ID())
		if err := s.k.Block(t); err != nil {
			return 0, err // diverted by µ-reboot; client stub recovers
		}
		// A wakeup means the event fired. The trigger may have been
		// delivered to a previous instance of this component (recovery
		// re-latches it), so do not insist on a pending count: being woken
		// is the delivery.
		e, ok = s.evts[id]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		e.removeWaiter(t.ID())
		if e.pending > 0 {
			e.pending--
		}
		return id, nil
	}
	e.pending--
	return id, nil
}

func (s *Server) trigger(t *kernel.Thread, id kernel.Word) (kernel.Word, error) {
	e, ok := s.evts[id]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	e.pending++
	woken := kernel.Word(len(e.waiters))
	waiters := e.waiters
	// Keep the backing array for the next Wait. Nothing appends to it
	// before this loop ends: the loop runs inside this component's
	// invocation, which the kernel never preempts, so no woken (or new)
	// waiter runs until the trigger returns.
	e.waiters = waiters[:0]
	for _, w := range waiters {
		if err := s.k.Wakeup(t, w); err != nil {
			return 0, err
		}
	}
	return woken, nil
}

func (e *evtState) removeWaiter(id kernel.ThreadID) {
	for i, w := range e.waiters {
		if w == id {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// Client is the typed client API for the event component. It holds the
// sgc-generated client and adds the calling component's identity to each
// call.
type Client struct {
	gen  *genevent.Client
	self kernel.Word
}

// NewClient binds a client component to the event server.
func NewClient(cl *core.Client, server kernel.ComponentID) (*Client, error) {
	gen, err := genevent.NewClient(cl, server)
	if err != nil {
		return nil, err
	}
	return &Client{gen: gen, self: kernel.Word(cl.ID())}, nil
}

// Stub exposes the underlying stub.
func (c *Client) Stub() *core.ClientStub { return c.gen.Stub() }

// Split creates a new event descriptor; parent ≤ 0 creates a root event.
func (c *Client) Split(t *kernel.Thread, parent, grp kernel.Word) (kernel.Word, error) {
	return c.gen.EvtSplit(t, c.self, parent, grp)
}

// Wait blocks until the event is triggered (or consumes a pending trigger).
func (c *Client) Wait(t *kernel.Thread, id kernel.Word) (kernel.Word, error) {
	return c.gen.EvtWait(t, c.self, id)
}

// Trigger fires the event, waking all waiters; returns the number woken.
func (c *Client) Trigger(t *kernel.Thread, id kernel.Word) (kernel.Word, error) {
	return c.gen.EvtTrigger(t, c.self, id)
}

// Free destroys the event descriptor.
func (c *Client) Free(t *kernel.Thread, id kernel.Word) error {
	_, err := c.gen.EvtFree(t, c.self, id)
	return err
}
