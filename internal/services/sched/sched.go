// Package sched implements the thread scheduler component: the user-level
// scheduling service of COMPOSITE, keeping per-thread accounting (priority,
// block/wakeup bookkeeping) on top of kernel thread objects and exporting
// sched_blk/sched_wakeup to clients.
//
// Recovery follows the paper's scheduler example: the µ-rebooted instance
// *reflects* on kernel data structures (it enumerates live kernel threads to
// rebuild its thread table), blocked threads are woken eagerly (T0) and
// diverted to their client stubs, and the stubs re-block them to match
// client expectations (the Fig. 2(a) walk).
package sched

import (
	_ "embed"
	"fmt"
	"sync"

	"superglue/internal/core"
	"superglue/internal/gen/gensched"
	"superglue/internal/idl"
	"superglue/internal/kernel"
)

//go:embed sched.sg
var idlSrc string

// Interface function names.
const (
	FnSetup  = "sched_setup"
	FnBlk    = "sched_blk"
	FnWakeup = "sched_wakeup"
	FnRemove = "sched_remove"
)

// spec parses the embedded IDL once per process.
var spec = sync.OnceValues(func() (*core.Spec, error) {
	return idl.Parse("sched", idlSrc)
})

// Spec returns the component's parsed IDL specification. It is parsed
// once per process and shared: callers must not mutate the result.
func Spec() (*core.Spec, error) {
	return spec()
}

// IDLSource returns the raw IDL text.
func IDLSource() string { return idlSrc }

// Register boots the scheduler component into a system.
func Register(sys *core.System) (kernel.ComponentID, error) {
	spec, err := Spec()
	if err != nil {
		return 0, err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &Server{} })
	if err != nil {
		return 0, err
	}
	// Watchdog budget: scheduler paths are the shortest in the system.
	if err := sys.Kernel().SetInvokeBudget(comp, 200); err != nil {
		return 0, err
	}
	return comp, nil
}

// thdState is the scheduler's per-thread accounting.
type thdState struct {
	owner   kernel.Word
	prio    kernel.Word
	blocks  uint64
	wakeups uint64
}

// Server is the scheduler component's implementation.
type Server struct {
	k       *kernel.Kernel
	self    kernel.ComponentID
	threads map[kernel.Word]*thdState
}

var _ kernel.Service = (*Server)(nil)

// Name implements kernel.Service.
func (s *Server) Name() string { return "sched" }

// Init implements kernel.Service. On a µ-reboot (epoch > 0), it reflects on
// the kernel's thread objects to rebuild its accounting — the reflection
// half of C³'s scheduler recovery. Client-visible registration state
// (which threads went through sched_setup, and their tracked priorities)
// is re-established by the client stubs' recovery walks.
func (s *Server) Init(bc *kernel.BootContext) error {
	s.k = bc.Kernel
	s.self = bc.Self
	s.threads = make(map[kernel.Word]*thdState)
	if bc.Epoch > 0 {
		for _, info := range s.k.ReflectThreads() {
			s.threads[kernel.Word(info.ID)] = &thdState{prio: kernel.Word(info.Prio)}
		}
	}
	return nil
}

// Registered returns the number of threads in the scheduler's table.
func (s *Server) Registered() int { return len(s.threads) }

// Dispatch implements kernel.Service.
func (s *Server) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("sched: %s needs %d args, got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case FnSetup:
		if err := need(3); err != nil {
			return 0, err
		}
		if _, err := s.k.Thread(kernel.ThreadID(args[1])); err != nil {
			return 0, kernel.ErrInvalidDescriptor
		}
		st, ok := s.threads[args[1]]
		if !ok {
			st = &thdState{}
			s.threads[args[1]] = st
		}
		st.owner = args[0]
		st.prio = args[2]
		return args[1], nil
	case FnBlk:
		if err := need(2); err != nil {
			return 0, err
		}
		st, ok := s.threads[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		if kernel.ThreadID(args[1]) != t.ID() {
			return 0, fmt.Errorf("sched: sched_blk of thread %d by thread %d", args[1], t.ID())
		}
		st.blocks++
		if err := s.k.Block(t); err != nil {
			return 0, err // diverted by µ-reboot; client stub recovers
		}
		return 0, nil
	case FnWakeup:
		if err := need(2); err != nil {
			return 0, err
		}
		st, ok := s.threads[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		st.wakeups++
		if err := s.k.Wakeup(t, kernel.ThreadID(args[1])); err != nil {
			return 0, err
		}
		return 0, nil
	case FnRemove:
		if err := need(2); err != nil {
			return 0, err
		}
		if _, ok := s.threads[args[1]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		delete(s.threads, args[1])
		return 0, nil
	default:
		return 0, kernel.DispatchError("sched", fn)
	}
}

// Client is the typed client API for the scheduler component. It holds
// the sgc-generated client and adds the calling component's identity and
// thread to each call.
type Client struct {
	gen  *gensched.Client
	self kernel.Word
}

// NewClient binds a client component to the scheduler.
func NewClient(cl *core.Client, server kernel.ComponentID) (*Client, error) {
	gen, err := gensched.NewClient(cl, server)
	if err != nil {
		return nil, err
	}
	return &Client{gen: gen, self: kernel.Word(cl.ID())}, nil
}

// Stub exposes the underlying stub.
func (c *Client) Stub() *core.ClientStub { return c.gen.Stub() }

// Setup registers thread t with the scheduler at the given priority.
func (c *Client) Setup(t *kernel.Thread, prio int) (kernel.Word, error) {
	return c.gen.SchedSetup(t, c.self, kernel.Word(t.ID()), kernel.Word(prio))
}

// Blk blocks the calling thread until another thread wakes it.
func (c *Client) Blk(t *kernel.Thread) error {
	_, err := c.gen.SchedBlk(t, c.self, kernel.Word(t.ID()))
	return err
}

// Wakeup unblocks thread tid.
func (c *Client) Wakeup(t *kernel.Thread, tid kernel.ThreadID) error {
	_, err := c.gen.SchedWakeup(t, c.self, kernel.Word(tid))
	return err
}

// Remove deregisters thread tid.
func (c *Client) Remove(t *kernel.Thread, tid kernel.ThreadID) error {
	_, err := c.gen.SchedRemove(t, c.self, kernel.Word(tid))
	return err
}
