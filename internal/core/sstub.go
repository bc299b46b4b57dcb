package core

import (
	"errors"
	"fmt"

	"superglue/internal/kernel"
	"superglue/internal/obs"
)

// serverStub wraps a server component's implementation with the SuperGlue
// server-side generated logic. Its main duty is the G0 path: translating
// stale global-descriptor IDs through the storage component and, when the
// rebooted server does not recognize an ID (the EINVAL signal), upcalling
// the descriptor's recorded creator to rebuild it and replaying the
// invocation with the recovered ID.
type serverStub struct {
	sys   *System
	entry *serverEntry
	inner kernel.Service
}

var _ kernel.Service = (*serverStub)(nil)

func newServerStub(sys *System, entry *serverEntry, inner kernel.Service) *serverStub {
	return &serverStub{sys: sys, entry: entry, inner: inner}
}

// Name implements kernel.Service.
func (s *serverStub) Name() string { return s.inner.Name() }

// Init implements kernel.Service. The first boot runs during registration,
// before RegisterServer learns the component ID, so the stub completes the
// system's bookkeeping here — services may then resolve their own storage
// class from Init.
func (s *serverStub) Init(bc *kernel.BootContext) error {
	if s.entry.comp == 0 {
		s.entry.comp = bc.Self
		s.sys.servers[bc.Self] = s.entry
	}
	return s.inner.Init(bc)
}

// Inner exposes the wrapped implementation (tests and reflection).
func (s *serverStub) Inner() kernel.Service { return s.inner }

// Dispatch implements kernel.Service.
func (s *serverStub) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	spec := s.entry.spec
	info := s.entry.fn(fn)
	if info == nil {
		// Internal / non-IDL function: pass through untouched.
		return s.inner.Dispatch(t, fn, args)
	}
	di := info.descIdx
	if spec.DescIsGlobal && di >= 0 && di < len(args) {
		// Incoming IDs may predate a µ-reboot; resolve them first.
		args[di] = s.sys.store.Resolve(s.entry.class, args[di])
	}
	ret, err := s.inner.Dispatch(t, fn, args)
	if err == nil || !errors.Is(err, kernel.ErrInvalidDescriptor) {
		return ret, err
	}
	if !spec.DescIsGlobal || di < 0 || di >= len(args) {
		return ret, err
	}
	// G0: the server does not know this descriptor. If the storage
	// component has a creator record, upcall the creator to rebuild it
	// (U0), then replay the invocation with the recovered ID.
	staleID := args[di]
	rec, ok := s.sys.store.LookupCreator(s.entry.class, staleID)
	if !ok {
		return ret, err
	}
	tr := s.sys.kern.Tracer()
	vt0 := s.sys.kern.Now()
	steps0 := s.sys.kern.InvocationCount()
	newID, uerr := s.sys.kern.Upcall(t, rec.Creator, FnRecreate, kernel.Word(s.entry.comp), staleID)
	if uerr != nil {
		return 0, fmt.Errorf("core: %s: G0 upcall to creator %d for descriptor %d: %w",
			spec.Service, rec.Creator, staleID, uerr)
	}
	if tr != nil {
		// The full G0 span: EINVAL detection → creator lookup → recreate
		// upcall, measured in virtual time and invocation steps.
		now := s.sys.kern.Now()
		tr.RecordRecovery(obs.MechG0, int32(s.entry.comp), int32(t.ID()), obs.FnOf(fn),
			int64(now), 0, int64(now-vt0), s.sys.kern.InvocationCount()-steps0)
	}
	if newID <= 0 {
		return ret, err
	}
	args[di] = newID
	return s.inner.Dispatch(t, fn, args)
}
