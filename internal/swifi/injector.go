// Package swifi implements Software-Implemented Fault Injection in the
// style of §V-A: single-bit flips in a modeled eight-register file (six
// general-purpose registers plus ESP and EBP, 32 bits each) of threads
// executing inside a target system component, under a fail-stop fault
// model.
//
// Every campaign runs on one engine: a trial first draws its injection
// plan from the trial RNG (planShaped), then one injector fires the plan
// as the workload invokes the target. The paper's campaign (ShapeLegacy)
// is a one-entry plan — a register bit flip at a uniformly random moment
// of execution inside the target, in the return window with probability
// exitPhaseFrac — and the other shapes plan several typed faults. A flip
// draws a uniformly random register and bit, and its manifestation is
// derived mechanistically from what the register held (kernel.RegClass)
// rather than by sampling outcome frequencies:
//
//   - a dead register's flip is never observed (undetected);
//   - live data or a pointer into component state corrupts that state and
//     is detected immediately (fail-stop), starting µ-reboot + recovery;
//   - a stack/frame pointer flip that is dereferenced before detection
//     either lands inside the component's mapped footprint (detected,
//     recoverable) or leaves it entirely (machine-level segfault,
//     unrecoverable);
//   - a loop-counter flip that raises the bound produces an unbounded loop
//     (latent fault: the system hangs, "not recovered — other");
//   - a return-value flip during the return window either escapes into the
//     client (fault propagation through the interface) or is caught by the
//     stub's validation (detected, recoverable).
package swifi

import (
	"fmt"
	"math/rand"

	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/kernel"
)

// Effect is the immediate manifestation of one injected bit flip.
type Effect int

// Effects.
const (
	// EffectNone means the flip was never observed (dead value).
	EffectNone Effect = iota + 1
	// EffectCrash means fail-stop detection: the component is failed and
	// the recovery machinery takes over.
	EffectCrash
	// EffectSegfault means the flip took the whole machine down.
	EffectSegfault
	// EffectHang means the flip produced an unbounded loop (latent fault).
	EffectHang
	// EffectRetvalSilent means a corrupted return value escaped into the
	// client (propagation); the run's outcome depends on what the client
	// does with it.
	EffectRetvalSilent
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	switch e {
	case EffectNone:
		return "none"
	case EffectCrash:
		return "crash"
	case EffectSegfault:
		return "segfault"
	case EffectHang:
		return "hang"
	case EffectRetvalSilent:
		return "retval-propagated"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// Injection records one planned-and-fired bit flip.
type Injection struct {
	Reg    kernel.Reg
	Bit    int
	Class  kernel.RegClass
	Fn     string
	Phase  kernel.InvokePhase
	Effect Effect
}

// exitPhaseFrac is the fraction of execution time spent in the return
// window, where EAX holds the in-flight return value.
const exitPhaseFrac = 0.15

// injector fires a trial's pre-drawn plan against its system. Moments
// are counted over invocations of the campaign target, recovery replays
// included: entries, or exits for a return-window flip. A flip reads the
// target's register profile from the kernel, where runTrial installs it.
type injector struct {
	sys    *core.System
	target kernel.ComponentID
	rng    *rand.Rand

	plan    []PlannedFault
	next    int    // next undeferred plan entry
	entries uint64 // target entries observed
	exits   uint64 // target exits observed

	// during-recovery state: the epoch of the target when the primary
	// fired; the deferred secondary fires at the first target entry in a
	// later epoch.
	primaryEpoch uint64
	armed        bool

	flips []Injection // records of register-flip firings
}

func newInjector(sys *core.System, target kernel.ComponentID, plan []PlannedFault, rng *rand.Rand) *injector {
	return &injector{sys: sys, target: target, rng: rng, plan: plan}
}

// anyFired reports whether at least one plan entry fired.
func (inj *injector) anyFired() bool {
	for _, p := range inj.plan {
		if p.Fired {
			return true
		}
	}
	return false
}

// Hook is the kernel invocation hook; install with Kernel.SetInvokeHook.
func (inj *injector) Hook(t *kernel.Thread, comp kernel.ComponentID, fn string, phase kernel.InvokePhase) {
	if comp != inj.target {
		return
	}
	exit := phase == kernel.PhaseExit
	var seen uint64
	if exit {
		inj.exits++
		seen = inj.exits
	} else {
		inj.entries++
		seen = inj.entries
	}
	for inj.next < len(inj.plan) {
		p := &inj.plan[inj.next]
		if p.Deferred || p.Exit != exit || p.Moment > seen {
			break
		}
		inj.next++
		inj.fireKind(t, p, fn, phase)
	}
	// A deferred secondary fires at the first target entry whose epoch
	// postdates the primary's: the recovery walk replaying the interface.
	if inj.armed && !exit {
		if epoch, err := inj.sys.Kernel().Epoch(inj.target); err == nil && epoch > inj.primaryEpoch {
			inj.armed = false
			for i := range inj.plan {
				if inj.plan[i].Deferred && !inj.plan[i].Fired {
					inj.fireKind(t, &inj.plan[i], fn, phase)
					// Re-arm for the next deferred secondary: it fires
					// at the first target entry of a yet-later epoch.
					inj.primaryEpoch = epoch
					inj.armed = inj.hasUnfiredDeferred()
					break
				}
			}
		}
	}
}

// fireKind synthesizes one typed fault. Faults against the target are
// raised from inside its invocation (the hook runs at PhaseEntry, or at
// PhaseExit for a return-window flip), so transient injections arm the
// in-flight invocation itself.
func (inj *injector) fireKind(t *kernel.Thread, p *PlannedFault, fn string, phase kernel.InvokePhase) {
	p.Fired = true
	k := inj.sys.Kernel()
	if !p.Deferred && !p.Storage && inj.primaryEpoch == 0 && !inj.armed {
		if epoch, err := k.Epoch(inj.target); err == nil {
			inj.primaryEpoch = epoch
			inj.armed = inj.hasUnfiredDeferred()
		}
	}
	victim := inj.target
	if p.Storage {
		victim = inj.sys.StorageComp()
	}
	switch p.Kind {
	case fault.KindRegisterFlip:
		rec := flipRegister(t, k.RegProfile(inj.target), inj.rng, fn, phase)
		inj.flips = append(inj.flips, rec)
		inj.applyFlip(t, victim, rec)
	case fault.KindHang:
		k.HangCurrentAs(t, fault.KindHang)
	case fault.KindLivelock:
		k.HangCurrentAs(t, fault.KindLivelock)
	case fault.KindDescCorruption:
		_ = k.FailComponentAs(victim, fault.KindDescCorruption, fault.DefaultSeverity(fault.KindDescCorruption))
	case fault.KindStorageCrash:
		if st := inj.sys.Store(); st.Replicas() > 1 {
			// Replicated store: fail-stop one replica (chosen by the trial
			// RNG), then fail the victim service so its recovery runs while
			// the store is a replica down — the store µ-reboots the replica
			// from checkpoint + WAL on its next operation and books the
			// detection as a typed event. The service fault is left
			// unclassified: the quorum absorbs the storage fault, so the
			// service-level sm_fault(storage_crash) policy must not fire.
			st.CrashReplica(inj.rng.Intn(st.Replicas()))
			_ = k.FailComponent(victim)
		} else {
			_ = k.FailComponentAs(inj.sys.StorageComp(), fault.KindStorageCrash, fault.DefaultSeverity(fault.KindStorageCrash))
		}
	case fault.KindStorageCorruption:
		if st := inj.sys.Store(); st.Replicas() > 1 {
			// Replicated store: flip a bit in one replica's log, checkpoint,
			// or slice state, then fail the victim so its G1 restore re-reads
			// storage mid-divergence. A quorum read detects the divergent
			// replica, repairs it by anti-entropy, and still serves correct
			// data, so the service never observes the corruption.
			st.CorruptReplica(inj.rng.Intn(st.Replicas()), inj.rng.Intn(1<<30))
			_ = k.FailComponent(victim)
		} else {
			// Single copy: disagree the redundant copy with its checksum,
			// then fail the victim so the G1 restore path re-reads (and
			// detects) it. When the victim has no saved data the corruption
			// cannot land and the crash alone is the injected fault.
			if class, ok := inj.sys.Class(victim); ok {
				st.CorruptOne(class, inj.rng.Intn(1<<30))
			}
			_ = k.FailComponentAs(victim, fault.KindStorageCorruption, fault.DefaultSeverity(fault.KindStorageCorruption))
		}
	case fault.KindMessageLoss:
		k.InjectTransientFault(t, victim, fault.KindMessageLoss)
	case fault.KindMessageDup:
		k.DuplicateNext(t, victim)
	case fault.KindMigration:
		// A failed migration between cores: the thread arrives but its
		// in-flight execution context is lost, so the invocation unwinds
		// transiently and the stub redoes it (the cross-core analogue of
		// message loss). On a single-core machine, or when the frame did
		// not cross cores, the kind degrades to a plain retransmission.
		k.InjectTransientFault(t, victim, fault.KindMigration)
	case fault.KindCrossCoreInv:
		// Corruption detected while a cross-core invocation executes on
		// the server's home core: fail-stop, µ-reboot on the home core,
		// and the caller's stub replays the (re-migrated) invocation.
		_ = k.FailComponentAs(victim, fault.KindCrossCoreInv, fault.DefaultSeverity(fault.KindCrossCoreInv))
	default:
		_ = k.FailComponentAs(victim, p.Kind, fault.DefaultSeverity(p.Kind))
	}
}

// hasUnfiredDeferred reports whether a deferred secondary is still armed
// to fire in a later recovery epoch.
func (inj *injector) hasUnfiredDeferred() bool {
	for _, p := range inj.plan {
		if p.Deferred && !p.Fired {
			return true
		}
	}
	return false
}

// applyFlip applies a register flip's mechanistic effect to the victim,
// attributing fail-stop detections as typed register-flip faults.
func (inj *injector) applyFlip(t *kernel.Thread, victim kernel.ComponentID, rec Injection) {
	k := inj.sys.Kernel()
	switch rec.Effect {
	case EffectNone, EffectRetvalSilent:
		// Nothing to do: either unobserved, or the corrupted value flows
		// back to the client through the (kernel-staged) EAX register.
	case EffectCrash:
		// Fail-stop: detected immediately after corrupting state.
		_ = k.FailComponentAs(victim, fault.KindRegisterFlip, fault.SevError)
	case EffectSegfault:
		k.CrashSystem(t, victim,
			fmt.Sprintf("wild %v dereference after bit %d flip", rec.Reg, rec.Bit))
	case EffectHang:
		k.HangCurrentAs(t, fault.KindHang)
	}
}

// flipRegister materializes the register file for an execution moment,
// flips one uniformly random bit of one uniformly random register, and
// returns the injection record with its mechanistically derived effect.
// Every campaign shape draws its flips through here, so the flip model is
// identical across shapes.
func flipRegister(t *kernel.Thread, profile kernel.RegProfile, rng *rand.Rand, fn string, phase kernel.InvokePhase) Injection {
	regs := t.Regs()
	regs.Materialize(profile, phase, rng)
	reg := kernel.Reg(rng.Intn(int(kernel.NumRegs)))
	bit := rng.Intn(32)
	regs.Val[reg] ^= 1 << bit

	rec := Injection{Reg: reg, Bit: bit, Class: regs.Class[reg], Fn: fn, Phase: phase}
	rec.Effect = classifyFlip(rng, profile, regs.Class[reg], bit)
	return rec
}

// classifyFlip derives the manifestation of a flip from the register's
// content class, the flipped bit's position, and the component's profile.
func classifyFlip(rng *rand.Rand, profile kernel.RegProfile, class kernel.RegClass, bit int) Effect {
	switch class {
	case kernel.ClassDead:
		return EffectNone
	case kernel.ClassData, kernel.ClassPtr:
		// Corrupts component state; fail-stop detects it immediately.
		return EffectCrash
	case kernel.ClassLoop:
		// Raising a high bit of a loop bound produces an unbounded loop;
		// lowering it truncates the loop, which the fail-stop consistency
		// checks catch.
		if bit >= 8 {
			return EffectHang
		}
		return EffectCrash
	case kernel.ClassStackPtr, kernel.ClassFramePtr:
		if rng.Float64() >= profile.StackUseFrac {
			// Reloaded before use: the corruption is never consumed.
			return EffectNone
		}
		if bit >= profile.MappedBits {
			// The wild pointer leaves the component's mapped footprint:
			// the machine, not just the component, goes down.
			return EffectSegfault
		}
		return EffectCrash
	case kernel.ClassRetVal:
		if rng.Float64() < profile.RetValFrac {
			// Plausible value: escapes the stub's validation and
			// propagates into the client.
			return EffectRetvalSilent
		}
		return EffectCrash
	default:
		return EffectCrash
	}
}
