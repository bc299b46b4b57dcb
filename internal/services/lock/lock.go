// Package lock implements the lock system component: mutual-exclusion locks
// with blocking contention, one of the six system-level services of the
// paper's evaluation (§V-B). Its interface is specified in lock.sg; recovery
// uses eager wakeup of contenders (T0), state-machine replay (R0/T1), and
// per-thread hold re-acquisition.
package lock

import (
	_ "embed"
	"fmt"
	"sync"

	"superglue/internal/core"
	"superglue/internal/gen/genlock"
	"superglue/internal/idl"
	"superglue/internal/kernel"
)

//go:embed lock.sg
var idlSrc string

// Interface function names.
const (
	FnAlloc   = "lock_alloc"
	FnTake    = "lock_take"
	FnRelease = "lock_release"
	FnFree    = "lock_free"
)

// spec parses the embedded IDL once per process.
var spec = sync.OnceValues(func() (*core.Spec, error) {
	return idl.Parse("lock", idlSrc)
})

// Spec returns the component's parsed IDL specification. It is parsed
// once per process and shared: callers must not mutate the result.
func Spec() (*core.Spec, error) {
	return spec()
}

// IDLSource returns the raw IDL text (for the compiler CLI and LOC counts).
func IDLSource() string { return idlSrc }

// Register boots the lock component into a system.
func Register(sys *core.System) (kernel.ComponentID, error) {
	spec, err := Spec()
	if err != nil {
		return 0, err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &Server{} })
	if err != nil {
		return 0, err
	}
	// Watchdog budget: lock operations are short critical-section twiddles.
	if err := sys.Kernel().SetInvokeBudget(comp, 200); err != nil {
		return 0, err
	}
	return comp, nil
}

// lockState is one lock's server-side state.
type lockState struct {
	holder  kernel.ThreadID
	waiters []kernel.ThreadID
	owner   kernel.Word // creating component (accounting)
}

// Server is the lock component's implementation. A fresh instance is the
// µ-reboot image.
type Server struct {
	k     *kernel.Kernel
	self  kernel.ComponentID
	next  kernel.Word
	locks map[kernel.Word]*lockState
}

var _ kernel.Service = (*Server)(nil)

// Name implements kernel.Service.
func (s *Server) Name() string { return "lock" }

// Init implements kernel.Service. Descriptor IDs are drawn from an
// epoch-qualified namespace so recreated locks receive fresh IDs, as a real
// µ-rebooted allocator would.
func (s *Server) Init(bc *kernel.BootContext) error {
	s.k = bc.Kernel
	s.self = bc.Self
	s.locks = make(map[kernel.Word]*lockState)
	s.next = kernel.Word(bc.Epoch) << 20
	return nil
}

// Locks returns the number of live locks (reflection/testing).
func (s *Server) Locks() int { return len(s.locks) }

// Dispatch implements kernel.Service.
func (s *Server) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	switch fn {
	case FnAlloc:
		if len(args) < 1 {
			return 0, fmt.Errorf("lock: alloc needs compid")
		}
		s.next++
		s.locks[s.next] = &lockState{owner: args[0]}
		return s.next, nil
	case FnTake:
		if len(args) < 3 {
			return 0, fmt.Errorf("lock: take needs compid, lockid, tid")
		}
		return s.take(t, args[1], kernel.ThreadID(args[2]))
	case FnRelease:
		if len(args) < 3 {
			return 0, fmt.Errorf("lock: release needs compid, lockid, tid")
		}
		return s.release(t, args[1], kernel.ThreadID(args[2]))
	case FnFree:
		if len(args) < 1 {
			return 0, fmt.Errorf("lock: free needs lockid")
		}
		l, ok := s.locks[args[0]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		if l.holder != 0 || len(l.waiters) > 0 {
			return 0, fmt.Errorf("lock: freeing lock %d while held/contended", args[0])
		}
		delete(s.locks, args[0])
		return 0, nil
	default:
		return 0, kernel.DispatchError("lock", fn)
	}
}

// take acquires lock id on behalf of thread tid. Normally tid is the
// invoking thread; during recovery the client stub replays a hold with the
// original holder's tid, restoring ownership without the holder running.
func (s *Server) take(t *kernel.Thread, id kernel.Word, tid kernel.ThreadID) (kernel.Word, error) {
	l, ok := s.locks[id]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	for l.holder != 0 && l.holder != tid {
		l.waiters = append(l.waiters, t.ID())
		if err := s.k.Block(t); err != nil {
			// Diverted by a µ-reboot (or killed): propagate unmodified so
			// the client stub can recover and redo.
			return 0, err
		}
		// Re-validate after wakeup: the lock may have been freed, or this
		// is a fresh instance.
		l, ok = s.locks[id]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		l.removeWaiter(t.ID())
	}
	l.holder = tid
	return 0, nil
}

func (s *Server) release(t *kernel.Thread, id kernel.Word, tid kernel.ThreadID) (kernel.Word, error) {
	l, ok := s.locks[id]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	if l.holder != tid {
		return 0, fmt.Errorf("lock: release of %d by thread %d, held by %d", id, tid, l.holder)
	}
	l.holder = 0
	waiters := l.waiters
	l.waiters = nil
	for _, w := range waiters {
		if err := s.k.Wakeup(t, w); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func (l *lockState) removeWaiter(id kernel.ThreadID) {
	for i, w := range l.waiters {
		if w == id {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}

// Client is the typed client API of the lock component: what application
// code links against. It holds the sgc-generated client and adds the
// calling component's identity and thread to each call.
type Client struct {
	gen  *genlock.Client
	self kernel.Word
}

// NewClient binds a client component to the lock server.
func NewClient(cl *core.Client, server kernel.ComponentID) (*Client, error) {
	gen, err := genlock.NewClient(cl, server)
	if err != nil {
		return nil, err
	}
	return &Client{gen: gen, self: kernel.Word(cl.ID())}, nil
}

// Stub exposes the underlying stub (metrics, tests).
func (c *Client) Stub() *core.ClientStub { return c.gen.Stub() }

// Alloc creates a lock and returns its descriptor.
func (c *Client) Alloc(t *kernel.Thread) (kernel.Word, error) {
	return c.gen.LockAlloc(t, c.self)
}

// Take acquires the lock, blocking while it is contended.
func (c *Client) Take(t *kernel.Thread, id kernel.Word) error {
	_, err := c.gen.LockTake(t, c.self, id, kernel.Word(t.ID()))
	return err
}

// Release releases the lock and wakes one or more contenders.
func (c *Client) Release(t *kernel.Thread, id kernel.Word) error {
	_, err := c.gen.LockRelease(t, c.self, id, kernel.Word(t.ID()))
	return err
}

// Free destroys the lock.
func (c *Client) Free(t *kernel.Thread, id kernel.Word) error {
	_, err := c.gen.LockFree(t, id)
	return err
}
