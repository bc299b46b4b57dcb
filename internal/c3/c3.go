// Package c3 is the hand-written recovery baseline: the per-interface stub
// code a system designer writes by hand under C³ (Song et al., RTSS 2013),
// before SuperGlue existed to generate it.
//
// Every stub in this package re-implements descriptor tracking, fault
// update, and recovery for one service with explicit, service-specific
// code — no interface specification, no state-machine engine, no shared
// walk planner. This is deliberately repetitive: the paper's argument is
// that these stubs are large (up to 398 LOC for the filesystem), complex,
// and error-prone, and that SuperGlue replaces them with ~30-40 lines of
// declarative IDL. Keeping the baseline genuinely hand-written makes the
// Fig. 6 comparisons honest: the LOC numbers are counted from this package,
// and the overhead and recovery micro-benchmarks run against these stubs.
//
// The server components and the µ-kernel substrate are shared with the
// SuperGlue configuration, as they are on real COMPOSITE: the two systems
// differ in the interface stub code.
package c3

import (
	"fmt"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/obs"
)

// maxRedo bounds every stub's fault-retry loop, mirroring the SuperGlue
// runtime's bound.
const maxRedo = 16

// Metrics counts a hand-written stub's work, comparable field-for-field
// with core.StubMetrics.
type Metrics struct {
	Invocations uint64
	TrackOps    uint64
	Recoveries  uint64
	WalkSteps   uint64
	Redos       uint64
}

// Client is a client protection domain whose interface stubs are the
// hand-written C³ ones. It implements kernel.Service so that server-side
// recovery can upcall into it, exactly like a SuperGlue client.
type Client struct {
	sys  *core.System
	comp kernel.ComponentID
	name string

	// Per-service stubs, installed by the New*Stub constructors. The
	// upcall dispatcher consults them by server component ID.
	recoverers map[kernel.ComponentID]upcallRecoverer
}

// upcallRecoverer is the hand-written analogue of the stub upcall entry
// points: recover a descriptor by key, or recreate a global descriptor by
// stale server ID.
type upcallRecoverer interface {
	recoverByKey(t *kernel.Thread, ns, id kernel.Word) (kernel.Word, error)
	recreateByServerID(t *kernel.Thread, stale kernel.Word) (kernel.Word, error)
}

var _ kernel.Service = (*Client)(nil)

// NewClient registers a C³ client component with the system's kernel.
func NewClient(sys *core.System, name string) (*Client, error) {
	c := &Client{
		sys:        sys,
		name:       name,
		recoverers: make(map[kernel.ComponentID]upcallRecoverer),
	}
	comp, err := sys.Kernel().Register(func() kernel.Service { return c })
	if err != nil {
		return nil, err
	}
	c.comp = comp
	return c, nil
}

// ID returns the client's component ID.
func (c *Client) ID() kernel.ComponentID { return c.comp }

// System returns the owning system.
func (c *Client) System() *core.System { return c.sys }

// Name implements kernel.Service.
func (c *Client) Name() string { return c.name }

// Init implements kernel.Service.
func (c *Client) Init(bc *kernel.BootContext) error { return nil }

// Dispatch implements kernel.Service: recovery upcalls are routed to the
// hand-written stub for the originating server.
func (c *Client) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	switch fn {
	case core.FnRecover:
		if len(args) < 3 {
			return 0, fmt.Errorf("c3: %s needs 3 args", fn)
		}
		r, ok := c.recoverers[kernel.ComponentID(args[0])]
		if !ok {
			return 0, fmt.Errorf("c3: no stub for server %d in client %s", args[0], c.name)
		}
		ret, err := r.recoverByKey(t, args[1], args[2])
		if err == nil {
			c.traceRecovery(t, obs.MechD1, kernel.ComponentID(args[0]), fn)
		}
		return ret, err
	case core.FnRecreate:
		if len(args) < 2 {
			return 0, fmt.Errorf("c3: %s needs 2 args", fn)
		}
		r, ok := c.recoverers[kernel.ComponentID(args[0])]
		if !ok {
			return 0, fmt.Errorf("c3: no stub for server %d in client %s", args[0], c.name)
		}
		ret, err := r.recreateByServerID(t, args[1])
		if err == nil {
			c.traceRecovery(t, obs.MechG0, kernel.ComponentID(args[0]), fn)
		}
		return ret, err
	default:
		return 0, kernel.DispatchError(c.name, fn)
	}
}

// traceRecovery records one recovery-mechanism firing against the shared
// trace recorder. It lives in the shared upcall dispatcher — NOT in the
// per-service hand-written stubs — so instrumenting the C³ baseline does
// not change the hand-written LOC that Fig. 6(c) counts.
func (c *Client) traceRecovery(t *kernel.Thread, mech obs.Mechanism, server kernel.ComponentID, fn string) {
	tr := c.sys.Tracer()
	if tr == nil {
		return
	}
	tr.RecordRecovery(mech, int32(server), int32(t.ID()), obs.FnOf(fn),
		int64(c.sys.Kernel().Now()), epochOf(c.sys.Kernel(), server), 0, 1)
}

// faultUpdate is CSTUB_FAULT_UPDATE: ensure the failed server is µ-rebooted
// exactly once per epoch.
func faultUpdate(t *kernel.Thread, k *kernel.Kernel, server kernel.ComponentID, f *kernel.Fault) error {
	_, err := k.EnsureRebooted(t, server, f.Epoch)
	return err
}

// epochOf returns a server's current epoch (0 if unknown).
func epochOf(k *kernel.Kernel, server kernel.ComponentID) uint64 {
	e, err := k.Epoch(server)
	if err != nil {
		return 0
	}
	return e
}
