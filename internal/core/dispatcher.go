package core

import (
	"superglue/internal/fault"
	"superglue/internal/kernel"
)

// This file is the central fault dispatcher: every fault a client stub
// catches is classified as a fault.Event and routed — by registered
// handler, then by the interface's sm_fault declarations, then by the
// kind's built-in default — to a recovery action, replacing the implicit
// "any fault ⇒ reboot" path with per-kind policy.

// FaultAction is the recovery action the dispatcher selects for a fault.
type FaultAction int

// Recovery actions.
const (
	// ActionDefault (the zero value) defers to the next routing layer:
	// a handler returning it falls through to the interface's sm_fault
	// declaration, which falls through to the kind's built-in default.
	ActionDefault FaultAction = iota
	// ActionReboot runs the full escalation ladder: µ-reboot the server,
	// recover descriptors, redo; escalate to a cascading reboot and
	// finally to degradation when the budget runs out.
	ActionReboot
	// ActionRetry redoes the invocation without a µ-reboot — the
	// retransmission path for transient faults that left the server's
	// state intact (message loss/duplication).
	ActionRetry
	// ActionDegrade skips the ladder and degrades the call immediately
	// (typed ErrDegraded), for faults the interface declares unrecoverable.
	ActionDegrade
)

// String implements fmt.Stringer.
func (a FaultAction) String() string {
	switch a {
	case ActionDefault:
		return "default"
	case ActionReboot:
		return "reboot"
	case ActionRetry:
		return "retry"
	case ActionDegrade:
		return "degrade"
	default:
		return "FaultAction(?)"
	}
}

// ParseFaultAction resolves an sm_fault action name.
func ParseFaultAction(s string) (FaultAction, bool) {
	switch s {
	case "reboot":
		return ActionReboot, true
	case "retry":
		return ActionRetry, true
	case "degrade":
		return ActionDegrade, true
	default:
		return ActionDefault, false
	}
}

// FaultHandler is a runtime-registered per-kind recovery handler. It
// observes the typed fault event and picks the recovery action;
// returning ActionDefault defers to the interface's sm_fault declaration
// and the kind's built-in default.
type FaultHandler func(ev fault.Event) FaultAction

// HandleFault registers (or, with nil, removes) the runtime handler for
// one fault kind. Handlers run before interface declarations, so a
// deployment can override per-interface policy without editing specs.
// Call before threads run; the simulator is single-core, so there is no
// racing stub call.
func (s *System) HandleFault(kind fault.Kind, h FaultHandler) {
	if s.faultHandlers == nil {
		s.faultHandlers = make(map[fault.Kind]FaultHandler)
	}
	if h == nil {
		delete(s.faultHandlers, kind)
		return
	}
	s.faultHandlers[kind] = h
}

// routeFault selects the recovery action for a caught fault: registered
// handler first, then the interface's sm_fault declaration, then the
// kind's built-in default (transient kinds retransmit, everything else
// takes the reboot ladder — the pre-taxonomy behavior).
func (s *System) routeFault(spec *Spec, flt *kernel.Fault) FaultAction {
	if h := s.faultHandlers[flt.Kind]; h != nil {
		if act := h(flt.Event()); act != ActionDefault {
			return act
		}
	}
	return DeclaredFaultAction(spec, flt.Kind)
}

// DeclaredFaultAction is fault routing below the runtime handler layer:
// the interface's sm_fault declaration for kind, then the kind's built-in
// default (transient kinds retransmit, everything else takes the reboot
// ladder). The model checker routes through it too, so the dynamic and
// the verified routing cannot drift apart.
func DeclaredFaultAction(spec *Spec, kind fault.Kind) FaultAction {
	if spec != nil && kind != fault.KindUnknown {
		if name, ok := spec.FaultActions[kind.String()]; ok {
			if act, valid := ParseFaultAction(name); valid {
				return act
			}
		}
	}
	if kind.Transient() {
		return ActionRetry
	}
	return ActionReboot
}
