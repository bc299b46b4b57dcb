package core

import (
	"errors"
	"fmt"

	"superglue/internal/kernel"
)

// ErrDegraded is the graceful-degradation error: the recovery escalation
// ladder (retry → re-reboot → cascading reboot of depended-on servers) ran
// out of budget, so the stub stops retrying and surfaces a typed error the
// application can handle — serve a 503, drop a request, fall back to a
// read-only path — while the machine keeps running. It wraps
// ErrRecoveryFailed so existing errors.Is(err, ErrRecoveryFailed) checks
// still match.
var ErrDegraded = errors.New("core: service degraded (recovery budget exhausted)")

// RecoveryPolicy configures the client stub's fault-retry escalation ladder,
// replacing the previous fixed redo bound. Attempts 0..MaxRetries-1 follow
// the Fig. 4 template (µ-reboot the server, recover descriptors, redo);
// attempts MaxRetries..MaxRetries+CascadeRetries-1 escalate to a cascading
// reboot of the server's declared dependencies (leaves first) before forcing
// the server itself through a fresh µ-reboot; once both rungs are exhausted
// the stub degrades (ErrDegraded) or fails hard (ErrRecoveryFailed).
type RecoveryPolicy struct {
	// MaxRetries bounds the plain redo rung of the ladder, and the
	// re-reboots one descriptor's recovery walk absorbs (RetryWalk). Zero
	// or negative means "use the default".
	MaxRetries int
	// CascadeRetries bounds the cascading-reboot rung. Negative means
	// "use the default"; zero disables cascading.
	CascadeRetries int
	// Backoff is the virtual-time sleep before the second and subsequent
	// attempts, doubling per attempt (capped by MaxBackoff). Zero disables
	// backoff, which keeps recovery latency deterministic for the
	// virtual-time experiments; non-zero models a real system giving a
	// repeatedly faulting server breathing room.
	Backoff kernel.Time
	// MaxBackoff caps the doubled backoff. Zero with Backoff > 0 means
	// "no cap".
	MaxBackoff kernel.Time
	// Degrade selects the terminal behavior once the budget is exhausted:
	// true returns ErrDegraded (graceful degradation), false returns
	// ErrRecoveryFailed (fail the run, the pre-policy behavior).
	Degrade bool
}

// Default ladder: 12 plain redos then 4 cascading reboots — 16 attempts
// total, matching the pre-policy fixed bound — no backoff, degrade at the
// end.
const (
	defaultMaxRetries     = 12
	defaultCascadeRetries = 4
)

// DefaultRecoveryPolicy returns the policy used when none is set.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		MaxRetries:     defaultMaxRetries,
		CascadeRetries: defaultCascadeRetries,
		Degrade:        true,
	}
}

// normalized fills defaulted fields. The zero value of each field means:
//
//   - MaxRetries == 0 (or negative): "use the default" (defaultMaxRetries).
//     A plain-retry rung of zero is not expressible — the first rung always
//     exists, because the first observer of a fault must µ-reboot the
//     server at least once for the system to make progress.
//   - CascadeRetries == 0: "disabled" — the ladder never escalates to a
//     cascading reboot and goes straight from plain retries to the
//     terminal rung. Only a negative value means "use the default"
//     (defaultCascadeRetries). This asymmetry with MaxRetries is
//     deliberate: disabling cascades is a meaningful configuration,
//     disabling all retries is not.
//   - Backoff == 0: "disabled" — every redo is immediate, keeping
//     recovery latency deterministic for the virtual-time experiments.
//     There is no default backoff.
//   - MaxBackoff == 0: "no cap" — with Backoff > 0 the doubling is
//     unbounded. It is not defaulted and has no effect while Backoff is
//     disabled.
//   - Degrade == false: "fail hard" — exhaustion returns
//     ErrRecoveryFailed, the pre-policy behavior. It is a plain flag, not
//     a defaulted field (DefaultRecoveryPolicy sets it true).
func (p RecoveryPolicy) normalized() RecoveryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = defaultMaxRetries
	}
	if p.CascadeRetries < 0 {
		p.CascadeRetries = defaultCascadeRetries
	}
	return p
}

// MaxAttempts is the total attempt budget across both rungs.
func (p RecoveryPolicy) MaxAttempts() int { return p.MaxRetries + p.CascadeRetries }

// For returns the policy the client stubs of spec's interface run: p with
// the interface's recovery_budget, when positive, in place of MaxRetries.
func (p RecoveryPolicy) For(spec *Spec) RecoveryPolicy {
	if spec.RecoveryBudget > 0 {
		p.MaxRetries = spec.RecoveryBudget
	}
	return p
}

// Rung is one step of the escalation ladder: what a client stub does with
// a server fault observed on a call's attempt.
type Rung uint8

// Escalation-ladder rungs, in escalation order.
const (
	// RungRedo redoes the call without a µ-reboot: a transient fault left
	// the server's state intact, or the interface declared reboot-free
	// retries for the kind.
	RungRedo Rung = iota
	// RungRestart µ-reboots the server (the Fig. 4 CSTUB_FAULT_UPDATE, or
	// the supervision tree's group restart), then redoes the call.
	RungRestart
	// RungCascade reboots the server's declared dependencies, leaves
	// first, forces the server through a fresh µ-reboot, then redoes.
	RungCascade
	// RungExhausted gives the call up: degrade or fail hard (Degrade).
	RungExhausted
)

// Rung returns the ladder's decision for a fault the fault dispatcher
// routed to act, observed on attempt (0-based). Transient faults and
// ActionRetry redo within the total attempt budget; ActionDegrade gives up
// at once; the reboot ladder restarts the server for the first MaxRetries
// attempts, cascades for the next CascadeRetries, then gives up.
func (p RecoveryPolicy) Rung(act FaultAction, transient bool, attempt int) Rung {
	switch {
	case act == ActionDegrade && !transient, attempt >= p.MaxAttempts():
		return RungExhausted
	case transient || act == ActionRetry:
		return RungRedo
	case attempt < p.MaxRetries:
		return RungRestart
	}
	return RungCascade
}

// RetryWalk reports whether a descriptor's recovery walk, hit by a server
// fault during its attempt-th replay (0-based), re-reboots the server and
// replays again. A walk absorbs MaxRetries mid-walk faults; the next one
// abandons the recovery (ErrRecoveryFailed).
func (p RecoveryPolicy) RetryWalk(attempt int) bool { return attempt < p.MaxRetries }

// backoffFor returns the virtual-time sleep before attempt (0-based;
// attempt 0 never sleeps — the first redo is immediate, as a fault is
// normally recovered in one iteration).
func (p RecoveryPolicy) backoffFor(attempt int) kernel.Time {
	if p.Backoff <= 0 || attempt <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// exhausted produces the terminal error for a spent budget.
func (p RecoveryPolicy) exhausted(service, fn string, attempts int, cause error) error {
	if p.Degrade {
		return &DegradedError{Service: service, Fn: fn, Attempts: attempts, Cause: cause}
	}
	return &exhaustedError{service: service, fn: fn, attempts: attempts, cause: cause}
}

// DegradedError carries the context of a degradation decision. It matches
// both errors.Is(err, ErrDegraded) and errors.Is(err, ErrRecoveryFailed).
type DegradedError struct {
	Service  string
	Fn       string
	Attempts int
	Cause    error
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("%s: %s.%s after %d attempts: %v", ErrDegraded, e.Service, e.Fn, e.Attempts, e.Cause)
}

// Is reports identity with both sentinel errors, so callers can treat
// degradation as a (softer) recovery failure.
func (e *DegradedError) Is(target error) bool {
	return target == ErrDegraded || target == ErrRecoveryFailed
}

// Unwrap exposes the underlying fault.
func (e *DegradedError) Unwrap() error { return e.Cause }

// exhaustedError is the Degrade=false terminal: ErrRecoveryFailed only.
type exhaustedError struct {
	service  string
	fn       string
	attempts int
	cause    error
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("%s: %s.%s after %d attempts: %v", ErrRecoveryFailed, e.service, e.fn, e.attempts, e.cause)
}

func (e *exhaustedError) Is(target error) bool { return target == ErrRecoveryFailed }

func (e *exhaustedError) Unwrap() error { return e.cause }
