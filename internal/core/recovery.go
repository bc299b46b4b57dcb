package core

import (
	"errors"
	"fmt"
	"sort"

	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/storage"
)

// span measures one recovery-mechanism firing for the trace recorder:
// virtual time and completed kernel invocations between begin and end.
// A zero span (nil tracer) makes every method a no-op, so
// instrumentation sites stay unconditional.
type span struct {
	tr     *obs.Recorder
	kern   *kernel.Kernel
	vt0    kernel.Time
	steps0 uint64
}

// beginSpan opens a measurement span against the system's tracer.
func (s *ClientStub) beginSpan() span {
	tr := s.sys.kern.Tracer()
	if tr == nil {
		return span{}
	}
	return span{tr: tr, kern: s.sys.kern, vt0: s.sys.kern.Now(), steps0: s.sys.kern.InvocationCount()}
}

// fnRecreate is FnRecreate interned for trace events.
var fnRecreate = obs.FnOf(FnRecreate)

// end records the span as one firing of mech for the stub's server.
func (sp span) end(mech obs.Mechanism, comp kernel.ComponentID, t *kernel.Thread, fn obs.FnID, gen uint64) {
	if sp.tr == nil {
		return
	}
	now := sp.kern.Now()
	var tid int32
	if t != nil {
		tid = int32(t.ID())
	}
	sp.tr.RecordRecovery(mech, int32(comp), tid, fn, int64(now), gen,
		int64(now-sp.vt0), sp.kern.InvocationCount()-sp.steps0)
}

// endIfWork records the span only when it covered at least one kernel
// invocation — for call sites that may be no-ops (already-current
// descriptors), so idle passes do not inflate mechanism counts.
func (sp span) endIfWork(mech obs.Mechanism, comp kernel.ComponentID, t *kernel.Thread, fn obs.FnID, gen uint64) {
	if sp.tr == nil || sp.kern.InvocationCount() == sp.steps0 {
		return
	}
	sp.end(mech, comp, t, fn, gen)
}

// recoverDesc restores one descriptor in the (µ-rebooted) server to the
// client's expected state: mechanism R0, ordered by D1, executing at the
// calling thread's priority (T1). The walk replays the descriptor's creation
// function, the precomputed shortest path to its tracked state, and any
// restore functions, translating stale identifiers as it goes.
func (s *ClientStub) recoverDesc(t *kernel.Thread, d *Descriptor) error {
	return s.recoverDescTimed(t, d, obs.MechT1)
}

// recoverDescTimed is recoverDesc with the recovery timing recorded for
// the tracer: trigger says whether this recovery runs eagerly at reboot
// time (T0, from the eager reboot hook) or on demand at access time
// (T1, every other path). A completed recovery records one R0 span (the
// walk replay itself) plus one trigger span with the same cost.
func (s *ClientStub) recoverDescTimed(t *kernel.Thread, d *Descriptor, trigger obs.Mechanism) error {
	if d.Closed {
		return nil
	}
	cur := s.epoch()
	if d.Epoch == cur {
		return nil
	}
	spec := s.entry.spec
	s.metrics.Recoveries++

	// One walker per descriptor: the walk can still park even inside the
	// non-preemptible section below (at a µ-reboot boot gate, or blocking
	// inside a hold replay), and a thread that passed the epoch check
	// before such a park would replay the walk a second time when it
	// resumes, clobbering the server identity the first walker published
	// — the client would then wait on a descriptor nobody ever triggers.
	// Later arrivals park until the walker finishes and re-check; wakeups
	// here can be spurious (a divert aimed at the parked thread), so the
	// loop re-examines both conditions rather than trusting the wake.
	for d.recovering {
		d.recoverWaiters = append(d.recoverWaiters, t.ID())
		_ = s.sys.kern.Block(t)
		if d.Epoch == s.epoch() {
			return nil
		}
	}
	d.recovering = true
	defer func() {
		d.recovering = false
		for _, w := range d.recoverWaiters {
			_ = s.sys.kern.Wakeup(t, w)
		}
		d.recoverWaiters = nil
	}()

	// The walk is a non-preemptible critical section: another thread must
	// never observe (and re-recover) a half-recovered descriptor.
	s.sys.kern.PushNoPreempt(t)
	defer s.sys.kern.PopNoPreempt(t)
	if d.Epoch == s.epoch() {
		return nil // recovered while we awaited the critical section
	}
	sp := s.beginSpan()

	// D1: the parent must exist in the server before the child can be
	// recreated, root-first along the dependency path.
	if d.Parent != nil && !d.Parent.Closed {
		psp := s.beginSpan()
		ps := d.ParentStub
		if ps == nil || ps == s || ps.client == s.client {
			if ps == nil {
				ps = s
			}
			if err := ps.recoverDescTimed(t, d.Parent, trigger); err != nil {
				return fmt.Errorf("core: recovering parent %v: %w", d.Parent.Key, err)
			}
		} else {
			// U0: the parent is tracked by another client component;
			// recover it with an upcall into that client.
			s.metrics.Upcalls++
			if _, err := s.sys.kern.Upcall(t, ps.client.comp, FnRecover,
				kernel.Word(ps.server), d.Parent.Key.NS, d.Parent.Key.ID); err != nil {
				return fmt.Errorf("core: upcall recovering parent %v: %w", d.Parent.Key, err)
			}
		}
		psp.endIfWork(obs.MechD1, s.server, t, d.createdFn, s.epoch())
	}

	walk, err := s.entry.sm.RecoveryWalk(d.CreatedBy, d.State)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRecoveryFailed, err)
	}
	oldSID := d.ServerID
	bound := s.policy().MaxRetries
	for attempt := 0; ; attempt++ {
		werr := s.replayWalk(t, d, walk)
		if werr == nil {
			// Re-establish outstanding holds (e.g., a lock held across the
			// fault) on behalf of the threads that held them, before any
			// contender can slip in. The interface carries the holder's
			// thread ID — as COMPOSITE's lock interface does — so any
			// thread can replay a hold for the recorded holder. Holds are
			// part of the same all-or-nothing restoration as the walk: a
			// fault while the hold replay is in flight means the server
			// rebooted again and the walked state is gone too, so the
			// retry replays both.
			werr = s.replayHolds(t, d)
		}
		if werr == nil {
			break
		}
		flt, ok := kernel.AsFault(werr)
		if !ok || flt.Comp != s.server {
			return fmt.Errorf("%w: walk for %v: %v", ErrRecoveryFailed, d.Key, werr)
		}
		if attempt >= bound {
			return fmt.Errorf("%w: walk for %v: %v", ErrRecoveryFailed, d.Key, werr)
		}
		// A second fault during recovery: reboot again, restart the walk.
		if _, rerr := s.sys.kern.EnsureRebooted(t, s.server, flt.Epoch); rerr != nil {
			return fmt.Errorf("%w: re-reboot during walk: %v", ErrRecoveryFailed, rerr)
		}
	}

	// U0 for cross-component dependencies: a rebuilt descriptor that lives
	// in another component's namespace (an alias mapped into it) is
	// announced with an upcall so that component can revalidate, without
	// its threads participating in the recovery (§II-D).
	if spec.DescHasParent == ParentXC && d.Key.NS != 0 && d.Key.NS != kernel.Word(s.client.comp) {
		s.metrics.Upcalls++
		if _, err := s.sys.kern.Upcall(t, kernel.ComponentID(d.Key.NS), FnRebuilt,
			kernel.Word(s.server), d.Key.NS, d.Key.ID); err != nil &&
			!errors.Is(err, kernel.ErrNoSuchFunction) && !errors.Is(err, kernel.ErrNoSuchComponent) {
			return fmt.Errorf("core: rebuild notification for %v: %w", d.Key, err)
		}
	}

	if spec.DescIsGlobal && d.ServerID != oldSID {
		// G0: publish the ID translation so other clients' stale IDs (and
		// the creator record) resolve to the recreated descriptor. The
		// storage component may itself be down — a correlated fault — so
		// the publish goes through the bounded µ-reboot-and-redo path
		// rather than a bare invocation.
		if _, err := s.sys.invokeStorage(t, storage.FnRemap,
			kernel.Word(s.entry.class), oldSID, d.ServerID); err != nil {
			return fmt.Errorf("core: remapping %v: %w", d.Key, err)
		}
		s.metrics.StorageOps++
	}
	d.Epoch = s.epoch()
	// One completed recovery = one walk replay (R0) + one timing span
	// (T0 eager / T1 on demand) with the same measured cost.
	sp.end(obs.MechR0, s.server, t, d.createdFn, d.Epoch)
	sp.end(trigger, s.server, t, d.createdFn, d.Epoch)
	return nil
}

// replayWalk performs one pass over the recovery walk. It returns the fault
// if the server fails mid-walk so the caller can reboot and restart.
func (s *ClientStub) replayWalk(t *kernel.Thread, d *Descriptor, walk []string) error {
	spec := s.entry.spec
	for _, wfn := range walk {
		info := s.entry.fns[wfn]
		if info == nil {
			return fmt.Errorf("walk names unknown function %s", wfn)
		}
		wf := info.f
		wargs := s.buildWalkArgs(wf, d)
		ret, err := s.sys.kern.InvokePost(t, s.server, wfn, info.fnID, nil, wargs...)
		if err != nil {
			return err
		}
		s.metrics.WalkSteps++
		// G1: a restore step pushes redundantly tracked *resource* data
		// (D_r) back into the server. Ordinary desc_data parameters are
		// descriptor meta-data (D_dr) and belong to the R0 walk itself, so
		// they are deliberately not counted here — G1 stays aligned with
		// the spec's derived mechanism set (RescHasData / sm_restore).
		if tr := s.sys.kern.Tracer(); tr != nil && spec.IsRestore(wfn) {
			tr.RecordRecovery(obs.MechG1, int32(s.server), int32(t.ID()), info.fnID,
				int64(s.sys.kern.Now()), s.epoch(), 0, 1)
		}
		if spec.IsCreation(wfn) && wf.RetDescID {
			d.ServerID = ret
		}
	}
	return nil
}

// buildWalkArgs synthesizes the argument list for one walk step from the
// descriptor's tracked meta-data and last-seen arguments.
func (s *ClientStub) buildWalkArgs(f *FuncSpec, d *Descriptor) []kernel.Word {
	last := d.LastArgs[f.Name]
	args := make([]kernel.Word, len(f.Params))
	for i, p := range f.Params {
		switch p.Role {
		case RoleDesc:
			args[i] = d.ServerID
		case RoleDescNS:
			args[i] = d.Key.NS
		case RoleParentDesc:
			if d.Parent != nil {
				args[i] = d.Parent.ServerID
			} else if i < len(last) {
				args[i] = last[i]
			}
		case RoleParentNS:
			if d.Parent != nil {
				args[i] = d.Parent.Key.NS
			} else if i < len(last) {
				args[i] = last[i]
			}
		case RoleDescData:
			if v, ok := d.Data[p.Name]; ok {
				args[i] = v
			} else if i < len(last) {
				args[i] = last[i]
			}
		default: // RolePlain
			if i < len(last) {
				args[i] = last[i]
			}
		}
	}
	return args
}

// replayHolds re-establishes every outstanding hold recorded on d (e.g.,
// the lock held across the fault) by replaying the hold functions with
// their recorded arguments — which carry the holding thread's identity, so
// the replay restores ownership to the original holder regardless of which
// thread drives recovery. Contenders woken eagerly then genuinely
// re-contend, reproducing §II-C's "recreating, acquiring, or contending
// locks".
func (s *ClientStub) replayHolds(t *kernel.Thread, d *Descriptor) error {
	if len(d.PerThread) == 0 {
		return nil
	}
	cur := s.epoch()
	tids := make([]kernel.ThreadID, 0, len(d.PerThread))
	for tid := range d.PerThread {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		tt := d.PerThread[tid]
		if tt.HoldFn == "" || tt.Epoch == cur {
			continue
		}
		f := s.entry.spec.Func(tt.HoldFn)
		if f == nil {
			return fmt.Errorf("%w: hold function %s missing", ErrRecoveryFailed, tt.HoldFn)
		}
		args := make([]kernel.Word, len(tt.Args))
		copy(args, tt.Args)
		if di := f.DescIdx(); di >= 0 && di < len(args) {
			args[di] = d.ServerID
		}
		s.metrics.HoldReplays++
		if _, err := s.sys.kern.Invoke(t, s.server, tt.HoldFn, args...); err != nil {
			// Multi-%w so a *Fault stays detectable: recoverDesc's retry
			// loop re-reboots and replays when the server fails mid-replay.
			return fmt.Errorf("%w: re-acquiring %s for thread %d: %w", ErrRecoveryFailed, tt.HoldFn, tid, err)
		}
		tt.Epoch = cur
	}
	return nil
}

// recoverChildren recovers d and then its entire subtree, children before
// use: the D0 prerequisite for recursive revocation.
func (s *ClientStub) recoverChildren(t *kernel.Thread, d *Descriptor) error {
	if err := s.recoverDesc(t, d); err != nil {
		return err
	}
	for _, c := range d.Children {
		if c.Closed {
			continue
		}
		if err := s.recoverChildren(t, c); err != nil {
			return err
		}
	}
	return nil
}

// handleRecoverUpcall services an FnRecover upcall: another component's
// recovery needs one of this client's descriptors restored (D1 across
// components, U0).
func (s *ClientStub) handleRecoverUpcall(t *kernel.Thread, key DescKey) (kernel.Word, error) {
	d, ok := s.tracker.Lookup(key)
	if !ok {
		return 0, fmt.Errorf("%w: %s %v", ErrUnknownDescriptor, s.entry.spec.Service, key)
	}
	if err := s.recoverDesc(t, d); err != nil {
		return 0, err
	}
	return d.ServerID, nil
}

// handleRecreateUpcall services an FnRecreate upcall (G0): the server-side
// stub found a stale global descriptor ID and asked us — the recorded
// creator — to rebuild it. Returns the descriptor's current server ID.
func (s *ClientStub) handleRecreateUpcall(t *kernel.Thread, staleID kernel.Word) (kernel.Word, error) {
	d, ok := s.tracker.LookupByServerID(staleID)
	if !ok {
		// The ID may already have been remapped by our own recovery.
		now := s.sys.store.Resolve(s.entry.class, staleID)
		if now != staleID {
			if d, ok = s.tracker.LookupByServerID(now); !ok {
				return now, nil
			}
		} else {
			return 0, fmt.Errorf("%w: %s server id %d", ErrUnknownDescriptor, s.entry.spec.Service, staleID)
		}
	}
	if err := s.recoverDesc(t, d); err != nil {
		return 0, err
	}
	// G1 for resources with redundantly stored data: the recreated
	// resource's payload was restored from the storage component.
	if s.entry.spec.RescHasData {
		if tr := s.sys.kern.Tracer(); tr != nil {
			tr.RecordRecovery(obs.MechG1, int32(s.server), int32(t.ID()), fnRecreate,
				int64(s.sys.kern.Now()), s.epoch(), 0, 1)
		}
	}
	return d.ServerID, nil
}
