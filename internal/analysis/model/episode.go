package model

import (
	"fmt"

	"superglue/internal/core"
	"superglue/internal/fault"
)

// Outcome classifies one simulated recovery episode, mirroring the
// dynamic Table II columns the checker predicts.
type Outcome int

// Episode outcomes.
const (
	// OutRecovered: the fault was absorbed and every descriptor, hold,
	// and blocked thread was re-established.
	OutRecovered Outcome = iota + 1
	// OutDegraded: the escalation ladder exhausted its budget and the
	// call returned the typed degradation error (RecoveryPolicy.Degrade).
	OutDegraded
	// OutIntensity: a server restart exceeded the supervision tree's
	// restart-intensity budget (core.ErrRestartIntensity) and the call
	// degraded through the supervisor.
	OutIntensity
	// OutFailed: recovery gave up without a degradation contract
	// (ErrRecoveryFailed under a fail-hard policy) — the P1 violation.
	OutFailed
	// OutCycle: the episode revisited a configuration and can loop
	// forever (a hold-replay or wakeup-replay cycle) — the P2 violation.
	OutCycle
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutRecovered:
		return "recovered"
	case OutDegraded:
		return "degraded"
	case OutIntensity:
		return "degraded (restart intensity)"
	case OutFailed:
		return "failed"
	case OutCycle:
		return "non-terminating"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// PredictedTrial maps an episode outcome to the swifi campaign outcome
// a lowered repro plan should observe. Failure outcomes predict the
// "not recovered" family rather than a variant: whether the stub error
// aborts the run ("other") or surfaces through the workload checker
// ("propagated") depends on the workload, not the spec, so the dynamic
// outcome agrees when it has the predicted string as a prefix.
func (o Outcome) PredictedTrial() string {
	switch o {
	case OutRecovered:
		return "recovered"
	case OutDegraded, OutIntensity:
		return "degraded"
	default:
		return "not recovered"
	}
}

// epResult is one episode's verdict.
type epResult struct {
	outcome Outcome
	trace   []string
	// strandedHold: the episode ended with a thread's tracked hold
	// dropped by a µ-reboot and never replayed (P4 violation when a
	// during-recovery secondary caused it).
	strandedHold bool
	steps        int
	reboots      int
}

// episode simulates one fault's recovery deterministically. Every rung
// and walk-retry decision is the engine's own (core.RecoveryPolicy.Rung,
// as BoundCall.Call takes it, and RetryWalk, as recoverDesc takes it);
// what the episode abstracts on purpose is the rest: a retransmitted
// transient succeeds, walks and hold/wake replays are stepped
// symbolically, and every server µ-reboot charges the supervisor.
type episode struct {
	m *machine
	c conf

	trace   []string
	steps   int
	reboots int

	attempt     int // the call's ladder attempt (0-based, as BoundCall.Call counts)
	walkAttempt int // mid-walk faults the recovery walk absorbed so far

	// intensity is the remaining supervision restart budget; -1 models
	// the flat ladder (no supervisor, nothing charges).
	intensity int

	secKind fault.Kind
	secLeft int

	corrupt bool // a redundant storage extent is corrupted (persists)
}

func (ep *episode) tracef(format string, args ...any) {
	ep.trace = append(ep.trace, fmt.Sprintf(format, args...))
}

// maxEpisodeSteps is a safety net: episodes are bounded by the attempt
// counters, so hitting this means a checker bug, reported as a cycle.
const maxEpisodeSteps = 1 << 14

// runEpisode simulates the recovery of one injected fault from
// configuration start. secCount > 0 arms that many during-recovery
// secondary faults of secKind, each fired at the first walk step after a
// µ-reboot (the dynamic during-recovery shape's deferred injection).
// supervised selects restart-intensity charging.
func (m *machine) runEpisode(start conf, pk fault.Kind, secKind fault.Kind, secCount int, supervised bool) epResult {
	ep := &episode{m: m, c: start, secKind: secKind, secLeft: secCount, intensity: -1}
	if supervised {
		ep.intensity = m.cfg.RestartIntensity
	}
	ep.tracef("inject %s in %s", pk, m.confString(start))
	pending := pk
	for {
		ep.steps++
		if ep.steps > maxEpisodeSteps {
			ep.tracef("episode exceeded %d steps without terminating", maxEpisodeSteps)
			return ep.finish(OutCycle)
		}
		act := m.routeKind(pending)
		switch rung := m.pol.Rung(act, pending.Transient(), ep.attempt); rung {
		case core.RungExhausted:
			if act == core.ActionDegrade {
				ep.tracef("route %s → degrade: ladder gives the call up immediately", pending)
				return ep.exhausted("declared sm_fault degrade")
			}
			if ep.corrupt {
				return ep.exhausted("restore retried into the same corrupt data")
			}
			return ep.exhausted("retry rung exhausted without clearing the fault")
		case core.RungRedo:
			if pending.Transient() {
				ep.tracef("route %s → %s: retransmission absorbs the transient", pending, act)
				return ep.finish(OutRecovered)
			}
			ep.attempt++
			ep.tracef("route %s → retry: redo hits the persistent fault again (attempt %d/%d)",
				pending, ep.attempt, m.pol.MaxAttempts())
		default: // RungRestart, RungCascade
			if pending == fault.KindStorageCrash {
				// The stub's storage-dependency path: the faulting
				// component is storage, so it (not the server) is
				// µ-rebooted; redundant data survives and the invocation
				// is redone. No supervision charge for the target.
				ep.tracef("route %s → reboot: storage µ-reboot (G0/G1: redundant data survives), redo succeeds", pending)
				return ep.finish(OutRecovered)
			}
			if pending == fault.KindStorageCorruption && m.spec.RescHasData && !ep.corrupt {
				ep.corrupt = true
				ep.tracef("storage-corruption lands in a redundant extent of the saved class")
			}
			res, done := ep.rebootAndRecover(&pending, rung == core.RungCascade)
			if done {
				return res
			}
			// A restore step re-detected a fault; pending was updated and
			// the ladder routes it afresh on the next attempt.
			ep.attempt++
		}
	}
}

// exhausted ends the episode the way RecoveryPolicy.exhausted does:
// degrade (typed DegradedError) or fail hard (ErrRecoveryFailed).
func (ep *episode) exhausted(why string) epResult {
	if !ep.m.pol.Degrade {
		ep.tracef("budget exhausted (%s) → ErrRecoveryFailed (fail-hard policy)", why)
		return ep.finish(OutFailed)
	}
	ep.tracef("budget exhausted (%s) → typed degradation (DegradedError)", why)
	return ep.finish(OutDegraded)
}

// finish snapshots the episode verdict, flagging stranded holds: a
// thread still marked holding while the server-side hold was dropped by
// a µ-reboot and never replayed.
func (ep *episode) finish(out Outcome) epResult {
	stranded := false
	if ep.reboots > 0 && out != OutRecovered {
		for i := 0; i < ep.m.cfg.Threads; i++ {
			if ep.c.t[i] >= holdingOf(0) {
				d := int(ep.c.t[i]) - 1 - maxK
				if ep.c.d[d] >= descLive {
					stranded = true
					ep.tracef("thread still owns its hold on d%d, but the µ-rebooted server never had it replayed", d)
				}
			}
		}
	}
	return epResult{outcome: out, trace: ep.trace, strandedHold: stranded, steps: ep.steps, reboots: ep.reboots}
}

// rebootAndRecover performs one or more server µ-reboots with their
// recovery walks; cascade says the ladder is on its cascading-reboot rung.
// It returns done=false when a restore step re-detected a fault (pending
// updated; the caller re-routes it through the ladder).
func (ep *episode) rebootAndRecover(pending *fault.Kind, cascade bool) (epResult, bool) {
	m := ep.m
reboot:
	for {
		// One server µ-reboot: supervision charge, server state lost.
		ep.reboots++
		if ep.intensity >= 0 {
			ep.intensity--
			if ep.intensity < 0 {
				ep.tracef("µ-reboot #%d: restart-intensity budget exhausted → ErrRestartIntensity, supervisor degrades the subtree", ep.reboots)
				return ep.finish(OutIntensity), true
			}
			ep.tracef("µ-reboot #%d of the server (supervisor charge, %d left in window); descriptors stale", ep.reboots, ep.intensity)
		} else {
			ep.tracef("µ-reboot #%d of the server; descriptors stale", ep.reboots)
		}
		if cascade {
			ep.tracef("escalation ladder past plain redos (cascade rung: dependencies rebooted leaves-first)")
		}

		// Recovery walks, eager, in descriptor order (parents are
		// lower-indexed, so D1 ordering holds by construction).
		live := make([]int, 0, m.cfg.Descs)
		for d := 0; d < m.cfg.Descs; d++ {
			if ep.c.d[d] >= descLive {
				live = append(live, d)
			}
		}
		if len(live) == 0 {
			ep.tracef("no live descriptors to recover")
			return ep.finish(OutRecovered), true
		}
		for _, d := range live {
			expected := m.stateName(ep.c.d[d])
			if m.spec.DescHasParent != core.ParentSolo {
				ep.tracef("D1: d%d's parent descriptor recovered first", d)
				ep.steps++
			}
			if m.spec.DescIsGlobal {
				ep.tracef("G0: d%d's namespace entry remapped from storage", d)
				ep.steps++
			}
			walk, err := m.recoveryWalk(expected)
			if err != nil {
				ep.tracef("no recovery walk for d%d in %s: %v", d, expected, err)
				return ep.exhausted("missing recovery walk"), true
			}
			for i, fn := range walk {
				ep.steps++
				if ep.steps > maxEpisodeSteps {
					ep.tracef("episode exceeded %d steps without terminating", maxEpisodeSteps)
					return ep.finish(OutCycle), true
				}
				if ep.secLeft > 0 {
					// The during-recovery shape: the deferred secondary
					// fires at the first target entry of the new epoch —
					// the first walk's first replayed invocation.
					ep.secLeft--
					if !m.pol.RetryWalk(ep.walkAttempt) {
						ep.tracef("during-recovery: secondary %s fires at walk step %s; recovery-walk retry budget (%d) exhausted: walk abandoned mid-recovery",
							ep.secKind, fn, m.pol.MaxRetries)
						return ep.exhausted("recovery-walk retries exhausted"), true
					}
					ep.walkAttempt++
					ep.tracef("during-recovery: secondary %s fires at walk step %s (walk retry %d/%d)",
						ep.secKind, fn, ep.walkAttempt, m.pol.MaxRetries)
					continue reboot // re-reboot and replay the walks
				}
				if m.spec.IsRestore(fn) && ep.corrupt {
					ep.tracef("G1: %s re-reads the corrupt extent — storage-corruption re-detected", fn)
					*pending = fault.KindStorageCorruption
					return epResult{}, false
				}
				ep.tracef("R0: walk d%d step %d: %s", d, i+1, fn)
			}
		}

		// Hold replay: each holding thread re-establishes its hold.
		for i := 0; i < m.cfg.Threads; i++ {
			if ep.c.t[i] >= holdingOf(0) {
				d := int(ep.c.t[i]) - 1 - maxK
				if ep.c.d[d] >= descLive && len(m.holdFns) > 0 {
					ep.steps++
					ep.tracef("T0: replay hold %s on d%d for its owner", m.holdFns[0], d)
				}
			}
		}

		// T0/T1 wake: blocked threads re-enter their waits. With an
		// sm_hold protocol they re-contend the hold; with sm_reset they
		// re-contend the wait (a future wakeup completes it). With
		// neither, the replayed wait re-blocks immediately and recovery
		// is back where it started: a wakeup-replay cycle.
		for i := 0; i < m.cfg.Threads; i++ {
			if ep.c.t[i] == threadIdle || ep.c.t[i] >= holdingOf(0) {
				continue
			}
			d := int(ep.c.t[i]) - 1
			if ep.c.d[d] < descLive {
				ep.tracef("thread blocked on d%d stays parked (descriptor closed; no wakeup can arrive)", d)
				continue
			}
			ep.steps++
			if len(m.holdFns) > 0 {
				ep.tracef("T0: thread blocked on d%d re-contends the hold", d)
				continue
			}
			if len(m.brokenBlocks) > 0 {
				fn := m.brokenBlocks[0]
				ep.tracef("T0: wake replays %s for the thread blocked on d%d; %s has neither sm_hold nor sm_reset, so it re-blocks", fn, d, fn)
				ep.tracef("episode revisits %s — wakeup-replay cycle, recovery never terminates", m.confString(ep.c))
				return ep.finish(OutCycle), true
			}
			ep.tracef("T0: thread blocked on d%d re-contends its wait (sm_reset)", d)
		}
		ep.tracef("all descriptors fresh, holds replayed: recovered")
		return ep.finish(OutRecovered), true
	}
}

// recoveryWalk is the spec's full recovery sequence to the expected
// state: creation, the precomputed shortest pure path, the sm_restore
// tail.
func (m *machine) recoveryWalk(expected string) ([]string, error) {
	if len(m.creation) == 0 {
		return nil, fmt.Errorf("model: %s: no creation function", m.spec.Service)
	}
	return m.sm.RecoveryWalk(m.creation[0], expected)
}
