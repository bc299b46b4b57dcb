// Package timer implements the timer manager: periodic timers a thread
// blocks on (§V-B: "A thread wakes up, then blocks for a certain amount of
// time periodically"). Timer descriptors track their period as recovery
// meta-data; a µ-reboot loses the server's deadline bookkeeping, and
// interface-driven recovery rebuilds it from the tracked period.
package timer

import (
	_ "embed"
	"fmt"
	"sync"

	"superglue/internal/core"
	"superglue/internal/gen/gentimer"
	"superglue/internal/idl"
	"superglue/internal/kernel"
)

//go:embed timer.sg
var idlSrc string

// Interface function names.
const (
	FnAlloc = "timer_alloc"
	FnWait  = "timer_periodic_wait"
	FnFree  = "timer_free"
)

// spec parses the embedded IDL once per process.
var spec = sync.OnceValues(func() (*core.Spec, error) {
	return idl.Parse("timer", idlSrc)
})

// Spec returns the component's parsed IDL specification. It is parsed
// once per process and shared: callers must not mutate the result.
func Spec() (*core.Spec, error) {
	return spec()
}

// IDLSource returns the raw IDL text.
func IDLSource() string { return idlSrc }

// Register boots the timer component into a system.
func Register(sys *core.System) (kernel.ComponentID, error) {
	spec, err := Spec()
	if err != nil {
		return 0, err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &Server{} })
	if err != nil {
		return 0, err
	}
	// Watchdog budget: timer bookkeeping scans the pending-deadline list.
	if err := sys.Kernel().SetInvokeBudget(comp, 300); err != nil {
		return 0, err
	}
	return comp, nil
}

// timerState is one timer's server-side state.
type timerState struct {
	owner    kernel.Word
	period   kernel.Time
	deadline kernel.Time
}

// Server is the timer component's implementation.
type Server struct {
	k      *kernel.Kernel
	self   kernel.ComponentID
	next   kernel.Word
	timers map[kernel.Word]*timerState
}

var _ kernel.Service = (*Server)(nil)

// Name implements kernel.Service.
func (s *Server) Name() string { return "timer" }

// Init implements kernel.Service.
func (s *Server) Init(bc *kernel.BootContext) error {
	s.k = bc.Kernel
	s.self = bc.Self
	s.timers = make(map[kernel.Word]*timerState)
	s.next = kernel.Word(bc.Epoch) << 20
	return nil
}

// Dispatch implements kernel.Service.
func (s *Server) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("timer: %s needs %d args, got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case FnAlloc:
		if err := need(2); err != nil {
			return 0, err
		}
		if args[1] <= 0 {
			return 0, fmt.Errorf("timer: invalid period %d", args[1])
		}
		s.next++
		s.timers[s.next] = &timerState{
			owner:    args[0],
			period:   kernel.Time(args[1]),
			deadline: s.k.Now() + kernel.Time(args[1]),
		}
		return s.next, nil
	case FnWait:
		if err := need(2); err != nil {
			return 0, err
		}
		tm, ok := s.timers[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		now := s.k.Now()
		// Catch up missed periods (e.g., after recovery) so the timer
		// stays periodic rather than bursting.
		for tm.deadline <= now {
			tm.deadline += tm.period
		}
		if err := s.k.Sleep(t, tm.deadline-now); err != nil {
			return 0, err // diverted by µ-reboot; client stub recovers
		}
		// Re-validate: this may be a fresh instance after recovery.
		tm, ok = s.timers[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		tm.deadline += tm.period
		return kernel.Word(s.k.Now()), nil
	case FnFree:
		if err := need(2); err != nil {
			return 0, err
		}
		if _, ok := s.timers[args[1]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		delete(s.timers, args[1])
		return 0, nil
	default:
		return 0, kernel.DispatchError("timer", fn)
	}
}

// Client is the typed client API for the timer component. It holds the
// sgc-generated client and adds the calling component's identity and
// typed times to each call.
type Client struct {
	gen  *gentimer.Client
	self kernel.Word
}

// NewClient binds a client component to the timer server.
func NewClient(cl *core.Client, server kernel.ComponentID) (*Client, error) {
	gen, err := gentimer.NewClient(cl, server)
	if err != nil {
		return nil, err
	}
	return &Client{gen: gen, self: kernel.Word(cl.ID())}, nil
}

// Stub exposes the underlying stub.
func (c *Client) Stub() *core.ClientStub { return c.gen.Stub() }

// Alloc creates a periodic timer with the given period (µs).
func (c *Client) Alloc(t *kernel.Thread, period kernel.Time) (kernel.Word, error) {
	return c.gen.TimerAlloc(t, c.self, kernel.Word(period))
}

// Wait blocks until the timer's next period boundary; returns the wake time.
func (c *Client) Wait(t *kernel.Thread, id kernel.Word) (kernel.Time, error) {
	v, err := c.gen.TimerPeriodicWait(t, c.self, id)
	return kernel.Time(v), err
}

// Free destroys the timer.
func (c *Client) Free(t *kernel.Thread, id kernel.Word) error {
	_, err := c.gen.TimerFree(t, c.self, id)
	return err
}
