// Package core implements the SuperGlue system model and recovery runtime:
// the descriptor-resource model DR = (B_r, D_r, G_dr, P_dr, C_dr, Y_dr,
// D_dr), explicit descriptor state machines with precomputed shortest
// recovery walks, client- and server-side interface stubs, and the
// orchestration that maps the model onto the C³ recovery mechanisms
// (R0, T0, T1, D0, D1, G0, G1, U0) as defined in §III of the paper.
//
// A Spec is the compiled form of a SuperGlue IDL file (see internal/idl for
// the parser). The recovery engine in this package, ClientStub and its
// server-side counterpart, is configured by the Spec when the server
// registers; internal/codegen emits only the typed client each interface
// calls the engine through (internal/gen).
package core

import (
	"errors"
	"fmt"
	"sort"

	"superglue/internal/fault"
)

// ParentKind is P_dr: whether descriptors depend on a parent descriptor, and
// whether that dependency may span client components.
type ParentKind int

// Parent dependency kinds (Table I: desc_has_parent = Solo|Parent|XCParent).
const (
	// ParentSolo means descriptors have no inter-descriptor dependencies.
	ParentSolo ParentKind = iota + 1
	// ParentSame means a creation function takes an existing descriptor of
	// the same client as the parent (e.g., POSIX accept).
	ParentSame
	// ParentXC means the parent/child relationship can span client
	// components (e.g., memory-mapping aliases).
	ParentXC
)

// String implements fmt.Stringer.
func (p ParentKind) String() string {
	switch p {
	case ParentSolo:
		return "Solo"
	case ParentSame:
		return "Parent"
	case ParentXC:
		return "XCParent"
	default:
		return fmt.Sprintf("ParentKind(%d)", int(p))
	}
}

// ParamRole classifies how an interface-function parameter participates in
// descriptor state tracking (Table I, "descriptor state tracking" rows).
type ParamRole int

// Parameter roles.
const (
	// RolePlain parameters are passed through untracked.
	RolePlain ParamRole = iota + 1
	// RoleDescData parameters are recorded in the descriptor's tracked
	// meta-data (D_dr) and replayed during recovery.
	RoleDescData
	// RoleDesc parameters carry the descriptor's identifier; the stub uses
	// them to look the descriptor up and translates stale IDs after
	// recovery. On a creation function, a RoleDesc parameter means the
	// client chooses the descriptor ID (e.g., a virtual address).
	RoleDesc
	// RoleParentDesc parameters carry the parent descriptor's identifier
	// (desc_has_parent dependencies); they are tracked like desc_data and
	// resolved against the parent's current ID during replay.
	RoleParentDesc
	// RoleDescNS parameters qualify the descriptor's namespace, for
	// services whose descriptor IDs are only unique per client component
	// (e.g., virtual addresses per protection domain in the memory
	// manager). This is a SuperGlue-IDL extension over Table I; the
	// paper's hand-written MM stubs encoded the same pairing manually.
	RoleDescNS
	// RoleParentNS parameters qualify the parent descriptor's namespace
	// (cross-component parents, P_dr = XCParent).
	RoleParentNS
)

// String implements fmt.Stringer.
func (r ParamRole) String() string {
	switch r {
	case RolePlain:
		return "plain"
	case RoleDescData:
		return "desc_data"
	case RoleDesc:
		return "desc"
	case RoleParentDesc:
		return "parent_desc"
	case RoleDescNS:
		return "desc_ns"
	case RoleParentNS:
		return "parent_ns"
	default:
		return fmt.Sprintf("ParamRole(%d)", int(r))
	}
}

// ParamSpec describes one parameter of an interface function.
type ParamSpec struct {
	// CType is the declared C type (presentation and codegen only).
	CType string
	// Name is the parameter name.
	Name string
	// Role is the tracking role.
	Role ParamRole
}

// FuncSpec describes one function of a server component's interface
// (an element of I_dr).
type FuncSpec struct {
	// Name is the interface function name.
	Name string
	// RetCType is the declared C return type.
	RetCType string
	// RetDescID marks functions whose return value is a (new) descriptor
	// identifier, tracked via desc_data_retval.
	RetDescID bool
	// RetName is the tracked name of the returned value (for codegen).
	RetName string
	// RetAccum, when non-empty, names a desc_data field the return value
	// is added to (desc_data_retval_acc): the file-offset tracking of
	// §II-C, where read/write return values advance the tracked offset.
	RetAccum string
	// Params are the function's parameters in declaration order.
	Params []ParamSpec
}

// DescIdx returns the index of the RoleDesc parameter, or -1.
func (f *FuncSpec) DescIdx() int {
	for i, p := range f.Params {
		if p.Role == RoleDesc {
			return i
		}
	}
	return -1
}

// ParentIdx returns the index of the RoleParentDesc parameter, or -1.
func (f *FuncSpec) ParentIdx() int {
	for i, p := range f.Params {
		if p.Role == RoleParentDesc {
			return i
		}
	}
	return -1
}

// NSIdx returns the index of the RoleDescNS parameter, or -1.
func (f *FuncSpec) NSIdx() int {
	for i, p := range f.Params {
		if p.Role == RoleDescNS {
			return i
		}
	}
	return -1
}

// ParentNSIdx returns the index of the RoleParentNS parameter, or -1.
func (f *FuncSpec) ParentNSIdx() int {
	for i, p := range f.Params {
		if p.Role == RoleParentNS {
			return i
		}
	}
	return -1
}

// Transition is one sm_transition(From, To) declaration: after From has been
// applied to a descriptor, To is a valid next function.
type Transition struct {
	From string
	To   string
}

// HoldPair is one sm_hold(Hold, Release) declaration: Hold is a blocking
// function whose successful return means the calling thread holds the
// resource until it calls Release (a lock's take/release pair). Hold state
// is tracked per thread, so recovery re-acquires the resource on behalf of
// the thread that actually held it — and re-contends for threads that were
// merely waiting — reproducing §II-C's "recreating, acquiring, or contending
// locks".
type HoldPair struct {
	Hold    string
	Release string
}

// Spec is the compiled interface specification of one server component: the
// descriptor-resource model plus the descriptor state machine, as declared
// in a SuperGlue IDL file.
type Spec struct {
	// Service is the server component's name.
	Service string

	// Descriptor-resource model (Equation 1 of the paper).

	// DescHasParent is P_dr.
	DescHasParent ParentKind
	// DescCloseChildren is C_dr: terminating a descriptor destroys its
	// whole subtree (recursive revocation).
	DescCloseChildren bool
	// DescCloseRemove is Y_dr: terminating a descriptor deletes the stub's
	// tracking data for it.
	DescCloseRemove bool
	// DescIsGlobal is G_dr: descriptors are globally addressable across
	// client components.
	DescIsGlobal bool
	// DescBlock is B_r: threads can block inside the server.
	DescBlock bool
	// DescHasData is D_dr: descriptors carry tracked meta-data.
	DescHasData bool
	// RescHasData is D_r: the resource carries bulk data that must be
	// redundantly stored in the storage component (mechanism G1).
	RescHasData bool

	// RecoveryBudget, when positive, overrides the system policy's
	// MaxRetries for this interface: how many plain redos a stub call may
	// spend on this server before escalating to a cascading reboot. Zero
	// means "use the system policy"; negative is invalid.
	RecoveryBudget int

	// Descriptor state machine (Equation 2).

	// Funcs is I_dr, the interface's functions.
	Funcs []*FuncSpec
	// Transitions declares σ.
	Transitions []Transition
	// Creation is I^create: functions returning a new descriptor in s0.
	Creation []string
	// Terminal is I^terminate.
	Terminal []string
	// Blocking is I^block.
	Blocking []string
	// Wakeup is I^wakeup.
	Wakeup []string

	// IDL extensions beyond Table I (see DESIGN.md §5). These make state
	// collapse explicit where the paper's per-function implicit states
	// would force recovery to replay data operations.

	// Update lists functions that read or mutate the resource without
	// changing the descriptor's state (sm_update): valid in any live
	// state, never part of a recovery walk (e.g., fs_read/fs_write, whose
	// effects are recovered through the storage component instead).
	Update []string
	// Reset lists functions that return the descriptor to s0 (sm_reset),
	// such as a lock release or an event wait completing.
	Reset []string
	// Restore lists functions replayed after the recovery walk to push
	// tracked descriptor meta-data back into the server (sm_restore), the
	// "open and lseek" pattern of §II-C.
	Restore []string
	// Holds lists hold/release pairs tracked per thread (sm_hold).
	Holds []HoldPair

	// FaultActions maps a fault-taxonomy kind name (canonical hyphenated
	// form, e.g. "storage-crash") to the recovery action the interface
	// declares for it (sm_fault): "reboot" (the full escalation ladder,
	// the default), "retry" (redo without a µ-reboot), or "degrade"
	// (immediate typed degradation). Kinds absent from the map take the
	// dispatcher's per-kind default.
	FaultActions map[string]string
}

// Func looks up a function spec by name.
func (s *Spec) Func(name string) *FuncSpec {
	if i := s.funcSlot(name); i >= 0 {
		return s.Funcs[i]
	}
	return nil
}

// funcSlot returns a function's slot, its index in Funcs, or -1.
func (s *Spec) funcSlot(name string) int {
	for i, f := range s.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func contains(set []string, name string) bool {
	for _, s := range set {
		if s == name {
			return true
		}
	}
	return false
}

// IsCreation reports whether fn ∈ I^create.
func (s *Spec) IsCreation(fn string) bool { return contains(s.Creation, fn) }

// IsTerminal reports whether fn ∈ I^terminate.
func (s *Spec) IsTerminal(fn string) bool { return contains(s.Terminal, fn) }

// IsBlocking reports whether fn ∈ I^block.
func (s *Spec) IsBlocking(fn string) bool { return contains(s.Blocking, fn) }

// IsWakeup reports whether fn ∈ I^wakeup.
func (s *Spec) IsWakeup(fn string) bool { return contains(s.Wakeup, fn) }

// IsUpdate reports whether fn was declared sm_update.
func (s *Spec) IsUpdate(fn string) bool { return contains(s.Update, fn) }

// IsReset reports whether fn was declared sm_reset.
func (s *Spec) IsReset(fn string) bool { return contains(s.Reset, fn) }

// IsRestore reports whether fn was declared sm_restore.
func (s *Spec) IsRestore(fn string) bool { return contains(s.Restore, fn) }

// HoldFn returns the hold pair in which fn is the hold side, if any.
func (s *Spec) HoldFn(fn string) (HoldPair, bool) {
	for _, h := range s.Holds {
		if h.Hold == fn {
			return h, true
		}
	}
	return HoldPair{}, false
}

// ReleaseFn returns the hold pair in which fn is the release side, if any.
func (s *Spec) ReleaseFn(fn string) (HoldPair, bool) {
	for _, h := range s.Holds {
		if h.Release == fn {
			return h, true
		}
	}
	return HoldPair{}, false
}

// IsPerThread reports whether fn's effect is tracked per thread rather than
// on the shared descriptor state: blocking functions, wakeup functions, and
// both sides of hold pairs.
func (s *Spec) IsPerThread(fn string) bool {
	if s.IsBlocking(fn) || s.IsWakeup(fn) {
		return true
	}
	if _, ok := s.HoldFn(fn); ok {
		return true
	}
	_, ok := s.ReleaseFn(fn)
	return ok
}

// IsPure reports whether fn is a plain state-transition function: its
// application moves the shared descriptor state to a state named after it,
// and recovery walks may replay it. Creation, terminal, update, reset, and
// per-thread functions are not pure.
func (s *Spec) IsPure(fn string) bool {
	return !s.IsCreation(fn) && !s.IsTerminal(fn) && !s.IsUpdate(fn) &&
		!s.IsReset(fn) && !s.IsPerThread(fn)
}

// Mechanism identifies one of the paper's recovery mechanisms (§III-C).
type Mechanism int

// Recovery mechanisms.
const (
	// MechR0 is basic state-machine recovery.
	MechR0 Mechanism = iota + 1
	// MechT0 is eager recovery (wake blocked threads at fault time).
	MechT0
	// MechT1 is on-demand recovery at the accessing thread's priority.
	MechT1
	// MechD0 is recovery of children before termination.
	MechD0
	// MechD1 is root-first recovery of parent dependencies.
	MechD1
	// MechG0 is global-descriptor recovery through the storage component.
	MechG0
	// MechG1 is resource-data recovery through the storage component.
	MechG1
	// MechU0 is recovery using upcalls into client components.
	MechU0
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case MechR0:
		return "R0"
	case MechT0:
		return "T0"
	case MechT1:
		return "T1"
	case MechD0:
		return "D0"
	case MechD1:
		return "D1"
	case MechG0:
		return "G0"
	case MechG1:
		return "G1"
	case MechU0:
		return "U0"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Mechanisms derives, from the descriptor-resource model, the set of
// recovery mechanisms the service needs — the mapping of §III-C. This is
// what the paper's Fig. 6(b) commentary appeals to when it correlates
// recovery cost with the number of mechanisms involved.
func (s *Spec) Mechanisms() []Mechanism {
	out := []Mechanism{MechR0, MechT1} // base + on-demand, always present
	if s.DescBlock {
		out = append(out, MechT0)
	}
	if s.DescCloseChildren {
		out = append(out, MechD0)
	}
	if s.DescHasParent != ParentSolo {
		out = append(out, MechD1)
	}
	if s.DescIsGlobal {
		out = append(out, MechG0, MechU0)
	}
	if s.RescHasData {
		out = append(out, MechG1)
	}
	return out
}

// HasMechanism reports whether the service's model requires mechanism m.
func (s *Spec) HasMechanism(m Mechanism) bool {
	for _, got := range s.Mechanisms() {
		if got == m {
			return true
		}
	}
	return false
}

// ErrInvalidSpec wraps all specification validation failures.
var ErrInvalidSpec = errors.New("core: invalid interface specification")

// Validate checks the internal consistency rules of the model:
//
//   - every declared set member and transition endpoint is a known function;
//   - no sm_* set declares the same function twice, no sm_transition pair is
//     declared twice, and no hold function appears in two sm_hold pairs
//     (duplicates silently shadow each other in the compiled machine —
//     promoted from speclint findings to hard invariants);
//   - at least one creation function exists;
//   - B_r holds iff I^block is non-empty (§III-B: I^block ≠ ∅ ↔ B_r);
//   - C_dr implies P_dr ≠ Solo, and Y_dr implies ¬C_dr with P_dr ≠ Solo per
//     the model's definition (for Solo interfaces Y_dr is implied and need
//     not be declared);
//   - non-creation functions carry a RoleDesc parameter so the stub can
//     locate the descriptor;
//   - parent kinds other than Solo require a RoleParentDesc parameter on a
//     creation function;
//   - every function is reachable from s0 in the state machine (checked by
//     NewStateMachine).
func (s *Spec) Validate() error {
	_, err := s.validate()
	return err
}

// validate is Validate returning the state machine its reachability check
// built, so compileSpec builds σ once.
func (s *Spec) validate() (*StateMachine, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrInvalidSpec, s.Service, fmt.Sprintf(format, args...))
	}
	if s.Service == "" {
		return nil, fail("empty service name")
	}
	if len(s.Funcs) == 0 {
		return nil, fail("no interface functions")
	}
	if s.RecoveryBudget < 0 {
		return nil, fail("negative recovery budget")
	}
	seen := make(map[string]bool, len(s.Funcs))
	for _, f := range s.Funcs {
		if f == nil || f.Name == "" {
			return nil, fail("unnamed interface function")
		}
		if seen[f.Name] {
			return nil, fail("duplicate function %s", f.Name)
		}
		seen[f.Name] = true
		descs, parents, nss, pnss := 0, 0, 0, 0
		for _, p := range f.Params {
			switch p.Role {
			case RoleDesc:
				descs++
			case RoleParentDesc:
				parents++
			case RoleDescNS:
				nss++
			case RoleParentNS:
				pnss++
			case RolePlain, RoleDescData:
			default:
				return nil, fail("%s: parameter %s has unknown role", f.Name, p.Name)
			}
		}
		if descs > 1 || parents > 1 || nss > 1 || pnss > 1 {
			return nil, fail("%s: duplicate desc/parent_desc/desc_ns/parent_ns parameter", f.Name)
		}
		if pnss == 1 && parents == 0 {
			return nil, fail("%s: parent_ns without parent_desc", f.Name)
		}
	}
	for _, set := range []struct {
		name string
		fns  []string
	}{
		{"sm_creation", s.Creation},
		{"sm_terminal", s.Terminal},
		{"sm_block", s.Blocking},
		{"sm_wakeup", s.Wakeup},
		{"sm_update", s.Update},
		{"sm_reset", s.Reset},
		{"sm_restore", s.Restore},
	} {
		inSet := make(map[string]bool, len(set.fns))
		for _, fn := range set.fns {
			if !seen[fn] {
				return nil, fail("%s names unknown function %s", set.name, fn)
			}
			if inSet[fn] {
				return nil, fail("duplicate %s(%s) declaration", set.name, fn)
			}
			inSet[fn] = true
		}
	}
	for _, fn := range append(append([]string{}, s.Update...), s.Reset...) {
		if s.IsCreation(fn) || s.IsTerminal(fn) {
			return nil, fail("%s cannot be both update/reset and creation/terminal", fn)
		}
	}
	seenTr := make(map[Transition]bool, len(s.Transitions))
	for _, tr := range s.Transitions {
		if !seen[tr.From] || !seen[tr.To] {
			return nil, fail("sm_transition(%s, %s) names an unknown function", tr.From, tr.To)
		}
		if seenTr[tr] {
			return nil, fail("duplicate sm_transition(%s, %s) declaration", tr.From, tr.To)
		}
		seenTr[tr] = true
		if s.IsTerminal(tr.From) {
			return nil, fail("sm_transition from terminal function %s", tr.From)
		}
		if s.IsUpdate(tr.From) {
			return nil, fail("sm_transition from update function %s (update functions do not change state)", tr.From)
		}
	}
	seenHold := make(map[string]bool, len(s.Holds))
	for _, h := range s.Holds {
		if !seen[h.Hold] || !seen[h.Release] {
			return nil, fail("sm_hold(%s, %s) names an unknown function", h.Hold, h.Release)
		}
		if seenHold[h.Hold] {
			return nil, fail("duplicate sm_hold for hold function %s", h.Hold)
		}
		seenHold[h.Hold] = true
		if !s.IsBlocking(h.Hold) {
			return nil, fail("sm_hold: %s must be declared sm_block", h.Hold)
		}
	}
	for _, fn := range s.Restore {
		f := s.Func(fn)
		for _, p := range f.Params {
			switch p.Role {
			case RoleDesc, RoleDescNS, RoleDescData:
			default:
				return nil, fail("sm_restore(%s): parameter %s is %v; restore functions may only take desc, desc_ns, and desc_data parameters", fn, p.Name, p.Role)
			}
		}
	}
	if len(s.Creation) == 0 {
		return nil, fail("no creation function (sm_creation)")
	}
	if s.DescBlock != (len(s.Blocking) > 0) {
		return nil, fail("desc_block=%v inconsistent with %d sm_block functions (I^block ≠ ∅ ↔ B_r)",
			s.DescBlock, len(s.Blocking))
	}
	if s.DescCloseChildren && s.DescHasParent == ParentSolo {
		return nil, fail("desc_close_children requires desc_has_parent ≠ Solo")
	}
	if s.DescCloseRemove && s.DescCloseChildren {
		return nil, fail("desc_close_remove (Y_dr) requires ¬C_dr")
	}
	switch s.DescHasParent {
	case ParentSolo:
	case ParentSame, ParentXC:
		found := false
		for _, cfn := range s.Creation {
			if f := s.Func(cfn); f != nil && f.ParentIdx() >= 0 {
				found = true
			}
		}
		if !found {
			return nil, fail("desc_has_parent=%v but no creation function takes a parent_desc", s.DescHasParent)
		}
	default:
		return nil, fail("desc_has_parent not specified")
	}
	for _, f := range s.Funcs {
		if s.IsCreation(f.Name) {
			continue
		}
		if f.DescIdx() < 0 {
			return nil, fail("%s: non-creation function lacks a desc parameter", f.Name)
		}
	}
	for _, cfn := range s.Creation {
		f := s.Func(cfn)
		if !f.RetDescID && f.DescIdx() < 0 {
			return nil, fail("%s: creation function neither returns nor takes a descriptor id", cfn)
		}
	}
	faultKinds := make([]string, 0, len(s.FaultActions))
	for kind := range s.FaultActions {
		faultKinds = append(faultKinds, kind)
	}
	sort.Strings(faultKinds)
	for _, kind := range faultKinds {
		if k, ok := fault.ParseKind(kind); !ok || k == fault.KindUnknown {
			return nil, fail("sm_fault names unknown fault kind %q", kind)
		}
		switch action := s.FaultActions[kind]; action {
		case "reboot", "retry", "degrade":
		default:
			return nil, fail("sm_fault(%s, %s): action must be reboot, retry, or degrade", kind, action)
		}
	}
	// The state machine itself validates reachability.
	return NewStateMachine(s)
}
