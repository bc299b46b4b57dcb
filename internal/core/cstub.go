package core

import (
	"errors"
	"fmt"

	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/storage"
)

// The fault-retry loop of a single stub call is bounded by the system's
// RecoveryPolicy (see policy.go): a well-formed system recovers in one or
// two iterations; the escalation ladder turns recovery bugs (or
// back-to-back injected faults) into a cascading reboot and finally a typed
// degradation instead of livelock.

// StubMetrics counts the work a client stub performs, feeding the
// infrastructure-overhead and recovery-cost micro-benchmarks (Fig. 6).
type StubMetrics struct {
	// Invocations is the number of interface calls made through the stub.
	Invocations uint64
	// TrackOps is the number of descriptor-tracking updates.
	TrackOps uint64
	// Recoveries is the number of descriptor recoveries performed.
	Recoveries uint64
	// WalkSteps is the total number of recovery-walk invocations.
	WalkSteps uint64
	// HoldReplays is the number of per-thread hold re-acquisitions.
	HoldReplays uint64
	// Redos is the number of times a call was replayed after a fault
	// (the goto redo of the Fig. 4 template).
	Redos uint64
	// Cascades is the number of times the escalation ladder's second rung
	// fired: a cascading reboot of the server's declared dependencies.
	Cascades uint64
	// Upcalls is the number of cross-component recovery upcalls issued.
	Upcalls uint64
	// StorageOps is the number of storage-component interactions.
	StorageOps uint64
}

// ClientStub is the client side of a SuperGlue interface, the stub of
// Fig. 4: the one recovery engine, configured by the interface's Spec.
// Every invocation of the server flows through Call (or a BoundCall, as
// generated clients use), which tracks descriptor state on the way in and
// out and runs interface-driven recovery when the server faults.
type ClientStub struct {
	sys     *System
	client  *Client
	server  kernel.ComponentID
	entry   *serverEntry
	tracker *Tracker
	metrics StubMetrics
	// calls holds one BoundCall per interface function, by slot: Bind
	// hands out pointers into it.
	calls []BoundCall
	// ref is the handle to the server's (epoch, faulty) word: epoch reads
	// on the hot path are one atomic load.
	ref kernel.CompRef
	// pol is the cached effective recovery policy (system policy with the
	// interface's RecoveryBudget override applied), rebuilt only when the
	// system policy generation or the spec budget changes.
	pol       RecoveryPolicy
	polGen    uint64
	polBudget int
	// sargs is the reusable translated-argument buffer; valid on a
	// single-core machine because the dispatcher never switches threads
	// between the argument copy and the server's dispatch.
	sargs []kernel.Word
	// xcAlloc is set on multi-core machines: a cross-core invocation parks
	// the caller mid-Invoke (after the argument copy, before the dispatch),
	// so another thread sharing this stub could overwrite sargs while the
	// caller's call is in flight. Multi-core calls pay a per-call buffer.
	xcAlloc bool
}

// Server returns the server component this stub fronts.
func (s *ClientStub) Server() kernel.ComponentID { return s.server }

// Client returns the owning client component.
func (s *ClientStub) Client() *Client { return s.client }

// Spec returns the interface specification.
func (s *ClientStub) Spec() *Spec { return s.entry.spec }

// Metrics returns a snapshot of the stub's counters. The counters are
// machine-owned: from outside a running machine, read them inside
// Kernel.Do.
func (s *ClientStub) Metrics() StubMetrics { return s.metrics }

// Tracked returns the number of live descriptors the stub tracks.
func (s *ClientStub) Tracked() int {
	n := 0
	for _, d := range s.tracker.descs {
		if !d.Closed {
			n++
		}
	}
	return n
}

// Descriptor exposes a tracked descriptor for tests and reflection.
func (s *ClientStub) Descriptor(key DescKey) (*Descriptor, bool) {
	return s.tracker.Lookup(key)
}

// policy returns the stub's effective recovery policy: the system-wide
// policy with the interface's RecoveryBudget override (if any) applied to
// the plain-retry rung. The result is cached; it is rebuilt only when
// SetRecoveryPolicy bumps the system's policy generation or the spec's
// budget changes, so the hot call path pays a compare instead of a struct
// copy per invocation.
func (s *ClientStub) policy() *RecoveryPolicy {
	if s.polGen != s.sys.polGen || s.polBudget != s.entry.spec.RecoveryBudget {
		s.rebuildPolicy()
	}
	return &s.pol
}

// rebuildPolicy recomputes the cached effective policy.
func (s *ClientStub) rebuildPolicy() {
	s.pol = s.sys.policy.For(s.entry.spec)
	s.polGen = s.sys.polGen
	s.polBudget = s.entry.spec.RecoveryBudget
}

// degrade maps a recovery failure bubbling out of descriptor recovery to
// the policy's terminal error class: with Degrade set, an exhausted
// recovery degrades the call (typed ErrDegraded, machine keeps running)
// rather than failing the run.
func (s *ClientStub) degrade(t *kernel.Thread, fn string, attempts int, err error) error {
	if err == nil {
		return nil
	}
	if s.policy().Degrade && errors.Is(err, ErrRecoveryFailed) && !errors.Is(err, ErrDegraded) {
		err = &DegradedError{Service: s.entry.spec.Service, Fn: fn, Attempts: attempts, Cause: err}
	}
	s.traceDegraded(t, fn, err)
	return err
}

// traceDegraded records an EvDegraded event when err is (or wraps) the
// typed degradation error — the escalation ladder giving up.
func (s *ClientStub) traceDegraded(t *kernel.Thread, fn string, err error) {
	tr := s.sys.kern.Tracer()
	if tr == nil || !errors.Is(err, ErrDegraded) {
		return
	}
	var tid int32
	if t != nil {
		tid = int32(t.ID())
	}
	tr.RecordDegraded(int32(s.server), tid, obs.FnOf(fn), int64(s.sys.kern.Now()), s.epoch())
}

// epoch returns the server's current epoch: one atomic load through the
// stub's component handle, no kernel-lock round-trip.
func (s *ClientStub) epoch() uint64 {
	return s.ref.Epoch()
}

// descKeyInfo extracts the descriptor key named by a call's arguments.
func descKeyInfo(info *fnInfo, args []kernel.Word) DescKey {
	var key DescKey
	if info.descIdx >= 0 && info.descIdx < len(args) {
		key.ID = args[info.descIdx]
	}
	if info.nsIdx >= 0 && info.nsIdx < len(args) {
		key.NS = args[info.nsIdx]
	}
	return key
}

// parentKeyInfo extracts the parent descriptor key named by a call's
// arguments.
func parentKeyInfo(info *fnInfo, args []kernel.Word) (DescKey, bool) {
	pi := info.parentIdx
	if pi < 0 || pi >= len(args) || args[pi] <= 0 {
		return DescKey{}, false
	}
	key := DescKey{ID: args[pi]}
	if pni := info.parentNSIdx; pni >= 0 && pni < len(args) {
		key.NS = args[pni]
	}
	return key, true
}

// BoundCall is a client-stub call with its per-function dispatch record
// resolved once, at bind time. It is what generated code calls: each
// sgc-generated client (internal/gen) binds every interface function at
// construction, so the per-invocation hot path skips the function-name
// map lookup (and its string hash) that ClientStub.Call pays.
type BoundCall struct {
	stub *ClientStub
	info *fnInfo
}

// Bind resolves interface function fn's dispatch record and returns a
// handle whose Call is equivalent to ClientStub.Call(t, fn, ...) minus
// the per-call name lookup. Every Bind of one function returns the same
// handle.
func (s *ClientStub) Bind(fn string) (*BoundCall, error) {
	info := s.entry.fn(fn)
	if info == nil {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownFunction, s.entry.spec.Service, fn)
	}
	return &s.calls[info.slot], nil
}

// Call invokes interface function fn on the server with args, implementing
// the client-stub template of Fig. 4:
//
//	redo:
//	  cli_if_desc_update(...)      — locate + validate + on-demand recover
//	  ret = cli_if_invoke(...)     — the component invocation
//	  if fault: CSTUB_FAULT_UPDATE — µ-reboot if first observer, recover,
//	            goto redo
//	  cli_if_track(ret, ...)       — post-invocation descriptor tracking
//
// Arguments are the client-visible descriptor IDs; the stub translates them
// to the server's current IDs transparently.
func (s *ClientStub) Call(t *kernel.Thread, fn string, args ...kernel.Word) (kernel.Word, error) {
	info := s.entry.fn(fn)
	if info == nil {
		return 0, fmt.Errorf("%w: %s.%s", ErrUnknownFunction, s.entry.spec.Service, fn)
	}
	return s.calls[info.slot].Call(t, args...)
}

// Call invokes the bound interface function on the server with args. It
// is the body of the stub: ClientStub.Call resolves the function by name
// and lands here, and a generated client's method is one call of it.
func (b *BoundCall) Call(t *kernel.Thread, args ...kernel.Word) (kernel.Word, error) {
	s, info := b.stub, b.info
	spec := s.entry.spec
	fn := info.f.Name
	if len(args) != len(info.f.Params) {
		return 0, fmt.Errorf("core: %s.%s takes %d args, got %d", spec.Service, fn, len(info.f.Params), len(args))
	}

	var d *Descriptor
	if info.descIdx >= 0 && !info.isCreate {
		key := descKeyInfo(info, args)
		var ok bool
		d, ok = s.tracker.Lookup(key)
		if !ok {
			if !spec.DescIsGlobal {
				return 0, fmt.Errorf("%w: %s %v", ErrUnknownDescriptor, spec.Service, key)
			}
			// Global descriptor created by another component: pass through;
			// the server-side stub recovers it via storage + upcall (G0).
			d = nil
		}
	}
	// State-machine validation: invalid transitions are detected faults.
	// Update and per-thread functions are valid in every live state.
	if d != nil {
		if d.Closed {
			return 0, fmt.Errorf("%w: %s: σ(closed, %s)", ErrInvalidTransition, spec.Service, fn)
		}
		perThread := info.isBlocking || info.isWakeup || info.isHold || info.isRelease
		if !info.isUpdate && !perThread {
			if _, ok := s.entry.sm.next(int(d.state), info.slot); !ok {
				return 0, fmt.Errorf("%w: %s: σ(%s, %s) undefined", ErrInvalidTransition, spec.Service, d.State(), fn)
			}
		}
	}
	if info.isCreate && info.descIdx >= 0 {
		key := descKeyInfo(info, args)
		if old, ok := s.tracker.Lookup(key); ok && !old.Closed {
			return 0, fmt.Errorf("%w: %s: creation of live descriptor %v", ErrInvalidTransition, spec.Service, key)
		}
	}

	var sargs []kernel.Word
	if s.xcAlloc {
		sargs = make([]kernel.Word, len(args))
	} else {
		if cap(s.sargs) < len(args) {
			s.sargs = make([]kernel.Word, len(args))
		}
		sargs = s.sargs[:len(args)]
	}

	pol := s.policy()
	for attempt := 0; ; attempt++ {
		if bo := pol.backoffFor(attempt); bo > 0 {
			// Per-attempt virtual-time backoff before the redo: a
			// repeatedly faulting server gets breathing room. A fault
			// delivered while asleep targets the server we are about to
			// retry anyway, so it is not an error here.
			_ = s.sys.kern.Sleep(t, bo)
		}
		cur := s.epoch()
		// On-demand (T1) descriptor synchronization before the invocation.
		if d != nil && d.Epoch != cur {
			if err := s.recoverDesc(t, d); err != nil {
				return 0, s.degrade(t, fn, attempt, err)
			}
			cur = s.epoch()
		}
		// D0: terminating a descriptor with recursive revocation requires
		// its children to exist in the server first.
		if d != nil && info.isTerminal && spec.DescCloseChildren {
			sp := s.beginSpan()
			if err := s.recoverChildren(t, d); err != nil {
				return 0, s.degrade(t, fn, attempt, err)
			}
			sp.endIfWork(obs.MechD0, s.server, t, info.fnID, s.epoch())
		}

		copy(sargs, args)
		if info.descIdx >= 0 {
			if d != nil {
				sargs[info.descIdx] = d.ServerID
			} else if spec.DescIsGlobal && !info.isCreate {
				// Untracked global ID: resolve stale IDs through storage.
				resolved := s.sys.store.Resolve(s.entry.class, sargs[info.descIdx])
				if resolved != sargs[info.descIdx] {
					// G0: a stale global ID actually translated.
					if tr := s.sys.kern.Tracer(); tr != nil {
						tr.RecordRecovery(obs.MechG0, int32(s.server), int32(t.ID()), info.fnID,
							int64(s.sys.kern.Now()), cur, 0, 0)
					}
				}
				sargs[info.descIdx] = resolved
				s.metrics.StorageOps++
			}
		}
		var parent *Descriptor
		if pkey, ok := parentKeyInfo(info, args); ok {
			if p, tracked := s.tracker.Lookup(pkey); tracked {
				parent = p
				// D1 applies to creation too: the parent must exist in the
				// (possibly rebooted) server before a child can be created
				// from it.
				if p.Epoch != cur {
					if err := s.recoverDesc(t, p); err != nil {
						return 0, s.degrade(t, fn, attempt, err)
					}
				}
				sargs[info.parentIdx] = p.ServerID
			}
		}

		s.metrics.Invocations++
		// Descriptor tracking runs as the invocation's post hook: on the
		// server's core, before the return migration, so a completed
		// operation is never parked untracked where a concurrent recovery
		// replay would miss it (see kernel.InvokePost).
		var tret kernel.Word
		var terr error
		tracked := false
		ret, err := s.sys.kern.InvokePost(t, s.server, fn, info.fnID, func(r kernel.Word) {
			tret, terr = s.track(t, info, d, parent, args, r)
			tracked = true
		}, sargs...)
		if err != nil {
			flt, isFault := kernel.AsFault(err)
			if !isFault {
				return ret, err
			}
			if flt.Comp != s.server {
				// A fault in the storage component surfacing through the
				// server mid-call (the server reads or writes its redundant
				// store): µ-reboot storage — its data survives (G1) — and
				// redo. Faults in any other component are not this stub's
				// to recover.
				if flt.Comp == s.sys.storeComp && !flt.Transient && attempt < pol.MaxAttempts() {
					if _, rerr := s.sys.kern.EnsureRebooted(t, s.sys.storeComp, flt.Epoch); rerr != nil {
						return 0, fmt.Errorf("%w: µ-reboot of storage for %s: %v", ErrRecoveryFailed, spec.Service, rerr)
					}
					s.metrics.Redos++
					continue
				}
				return ret, err
			}
			// The fault dispatcher routes the typed fault to its recovery
			// action, and the policy picks the escalation ladder's rung
			// for it (RecoveryPolicy.Rung): redo, µ-reboot, cascading
			// reboot of the server's declared dependencies, or give up.
			rung := pol.Rung(s.sys.routeFault(spec, flt), flt.Transient, attempt)
			switch rung {
			case RungRestart:
				// CSTUB_FAULT_UPDATE: first observer restarts the server —
				// the legacy µ-reboot, or the supervision tree's group
				// restart when one is installed.
				if _, rerr := s.sys.restartServer(t, s.server, flt); rerr != nil {
					if !errors.Is(rerr, ErrRestartIntensity) {
						return 0, fmt.Errorf("%w: µ-reboot of %s: %v", ErrRecoveryFailed, spec.Service, rerr)
					}
					// The supervision tree refused the restart all the way
					// to the root: typed degradation.
					rung, err = RungExhausted, rerr
				}
			case RungCascade:
				// Retrying the server alone has not cleared the fault: it
				// may be re-corrupting itself from a dependency's state.
				s.metrics.Cascades++
				if cerr := s.sys.cascadeReboot(t, s.server); cerr != nil {
					return 0, fmt.Errorf("%w: %s: %v", ErrRecoveryFailed, spec.Service, cerr)
				}
			}
			if rung == RungExhausted {
				eerr := pol.exhausted(spec.Service, fn, attempt, err)
				s.traceDegraded(t, fn, eerr)
				return 0, eerr
			}
			s.metrics.Redos++
			continue
		}
		if !tracked {
			// Defensive: a nil-error return always runs the post hook.
			return s.track(t, info, d, parent, args, ret)
		}
		return tret, terr
	}
}

// track is the post-invocation half of the stub (cli_if_track): it updates
// the descriptor tracking structures from the call's arguments and return
// value.
func (s *ClientStub) track(t *kernel.Thread, info *fnInfo, d *Descriptor, parent *Descriptor, args []kernel.Word, ret kernel.Word) (kernel.Word, error) {
	spec := s.entry.spec
	s.metrics.TrackOps++

	if info.isCreate {
		cur := s.epoch()
		key := descKeyInfo(info, args)
		if info.descIdx < 0 {
			key = DescKey{ID: ret} // server-assigned identifier
		}
		nd := newDescriptor(key, info, cur)
		if info.f.RetDescID {
			nd.ServerID = ret
		}
		nd.record(info, args)
		if parent != nil {
			nd.Parent = parent
			nd.ParentStub = s
			parent.Children = append(parent.Children, nd)
		}
		if err := s.tracker.Insert(nd); err != nil {
			return ret, err
		}
		if spec.DescIsGlobal {
			// G0 registration: remember the creator in the storage
			// component, through a real component invocation.
			meta := dataMeta(info.f, args)
			gargs := append([]kernel.Word{kernel.Word(s.entry.class), nd.ServerID, kernel.Word(s.client.comp)}, meta...)
			if _, err := s.sys.invokeStorage(t, storage.FnRecordCreator, gargs...); err != nil {
				return ret, fmt.Errorf("core: recording creator of %v: %w", nd.Key, err)
			}
			s.metrics.StorageOps++
		}
		return ret, nil
	}

	if d == nil {
		return ret, nil // untracked global pass-through
	}

	d.record(info, args)
	if info.accSlot >= 0 {
		d.arena[info.accSlot] += ret
	}

	cur := s.epoch()
	switch {
	case info.isTerminal:
		return ret, s.closeDesc(t, d)
	case info.isHold:
		// Reuse the thread's tracking entry across hold/release cycles
		// (a nil hold marks "holds nothing"), so the steady-state hold
		// path allocates nothing.
		tt := d.holdEntry(t.ID())
		tt.hold = info
		tt.args = append(tt.args[:0], args...)
		tt.epoch = cur
	case info.isRelease:
		d.unhold(t.ID())
	case info.isBlocking || info.isWakeup:
		// Blocked-and-woken is a per-thread reset; nothing outstanding.
		d.unhold(t.ID())
		if info.isReset {
			d.state = info.state
		}
	case info.isReset, info.isPure:
		d.state = info.state
	}
	d.Epoch = cur
	return ret, nil
}

// dataMeta extracts the desc_data argument values (creation metadata).
func dataMeta(f *FuncSpec, args []kernel.Word) []kernel.Word {
	var out []kernel.Word
	for i, p := range f.Params {
		if (p.Role == RoleDescData || p.Role == RoleParentDesc) && i < len(args) {
			out = append(out, args[i])
		}
	}
	return out
}

// closeDesc applies the termination bookkeeping: recursive child removal for
// C_dr, tracking-data deletion for Y_dr, and storage-record cleanup for
// global descriptors.
func (s *ClientStub) closeDesc(t *kernel.Thread, d *Descriptor) error {
	spec := s.entry.spec
	if spec.DescCloseChildren {
		for len(d.Children) > 0 {
			c := d.Children[len(d.Children)-1]
			d.Children = d.Children[:len(d.Children)-1]
			c.Parent = nil
			if err := s.closeDesc(t, c); err != nil {
				return err
			}
		}
	}
	if d.Parent != nil {
		d.Parent.removeChild(d)
		d.Parent = nil
	}
	if spec.DescIsGlobal {
		if _, err := s.sys.invokeStorage(t, storage.FnRemoveCreator,
			kernel.Word(s.entry.class), d.ServerID); err != nil {
			return fmt.Errorf("core: removing creator record of %v: %w", d.Key, err)
		}
		s.metrics.StorageOps++
	}
	d.state = int32(s.entry.sm.closed)
	if spec.DescCloseChildren || spec.DescCloseRemove || spec.DescHasParent == ParentSolo {
		s.tracker.Remove(d.Key)
	} else {
		// Tracking data retained for surviving children (¬Y_dr).
		d.Closed = true
	}
	return nil
}
