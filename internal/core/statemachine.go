package core

import (
	"fmt"
	"sort"
)

// State names. States are implicit in the IDL (§IV-A: "the state machines in
// the current language are implicit"); the compiler infers one state per
// pure transition function — the state a descriptor is in after that
// function was applied — plus the distinguished states below. Update
// functions leave the state unchanged, reset functions return to s0, and
// blocking/wakeup/hold functions act on per-thread state instead of the
// shared descriptor state.
const (
	// StateInitial is s0, the state of a freshly created descriptor.
	StateInitial = "s0"
	// StateClosed is the state after a terminal function; the descriptor no
	// longer exists.
	StateClosed = "closed"
	// StateFaulty is s_f. Every state has an implicit transition to it,
	// taken when the server fails.
	StateFaulty = "s_f"
)

// StateMachine is the explicit form SM_dr = (I_dr, S_dr, σ, s0, s_f) of a
// spec's implicit descriptor state machine, together with the precomputed
// shortest recovery walk from s0 to every reachable state (the paper's
// "precomputed, shortest path through the state machine").
//
// The machine is compiled to numbers, as SuperGlue's C output fixes it at
// IDL compile time: a function's slot is its index in Spec.Funcs, and a
// state's number is its index in States. The client stub and the recovery
// walks work on these numbers; Next, Walk, RecoveryWalk and States are
// name views over the same tables for analysis tooling and docs.
//
// Recovery walks never include blocking or hold functions: a walk must not
// block the recovering thread, so a state only reachable through a blocking
// function is a specification error. Per-thread hold state is re-established
// separately, by the holding thread itself.
type StateMachine struct {
	spec *Spec
	// names numbers the states: S_dr in sorted order (the first nStates
	// entries), then StateClosed when no declared transition reaches it —
	// a descriptor still enters closed through a terminal call.
	names   []string
	nStates int
	// initial and closed are the numbers of s0 and of StateClosed.
	initial, closed int
	// keep marks, by function slot, the update and per-thread functions:
	// valid in every live state, and leaving it unchanged.
	keep []bool
	// sigma is σ restricted to declared transitions, dense:
	// sigma[state*len(spec.Funcs)+slot] is the state reached by applying
	// the function in that slot, or -1 when the transition is undeclared.
	sigma []int
	// walks[state] is the shortest pure-function sequence, as function
	// slots, that drives a descriptor from s0 to state; nil when the state
	// is not walk-reachable.
	walks [][]int
	// restore holds the sm_restore functions' slots, in declaration order.
	restore []int
}

// stateAfter maps a function to the shared descriptor state after the
// function is applied. Update and per-thread functions return "" (state
// unchanged).
func (s *Spec) stateAfter(fn string) string {
	switch {
	case s.IsCreation(fn):
		return StateInitial
	case s.IsTerminal(fn):
		return StateClosed
	case s.IsReset(fn):
		return StateInitial
	case s.IsUpdate(fn), s.IsPerThread(fn):
		return ""
	default:
		return fn
	}
}

// fromState maps a transition's From function to the state the transition
// departs from. Per-thread functions depart from the state they were applied
// in; the Fig. 3 style of declaring transitions through blocking functions
// (e.g., sm_transition(evt_wait, evt_trigger)) therefore resolves to the
// state those functions leave the shared descriptor in.
func (s *Spec) fromState(fn string) string {
	st := s.stateAfter(fn)
	if st == "" {
		// Per-thread From: the shared state is whatever it was; anchor the
		// declared validity at s0, the state such descriptors occupy.
		return StateInitial
	}
	return st
}

// StateAfter maps a function to the shared descriptor state after the
// function is applied: s0 for creation and reset functions, closed for
// terminal functions, the function's own name for pure transitions, and ""
// for update and per-thread functions (state unchanged). Exported for
// analysis tooling (internal/analysis/speclint).
func (s *Spec) StateAfter(fn string) string { return s.stateAfter(fn) }

// TransitionFromState maps a transition's From function to the state the
// transition departs from, with per-thread functions anchored at s0 exactly
// as NewStateMachine compiles them. Exported for analysis tooling.
func (s *Spec) TransitionFromState(fn string) string { return s.fromState(fn) }

// NewStateMachine compiles the spec's transition declarations into an
// explicit state machine and precomputes the shortest recovery walks. It
// fails if any pure function's state is unreachable from s0, which would
// make descriptors in that state unrecoverable.
func NewStateMachine(spec *Spec) (*StateMachine, error) {
	nf := len(spec.Funcs)
	slot := func(fn string) (int, error) {
		if f := spec.funcSlot(fn); f >= 0 {
			return f, nil
		}
		return 0, fmt.Errorf("%w: %s: state machine names unknown function %s", ErrInvalidSpec, spec.Service, fn)
	}
	// σ's edges by state name, in declaration order; creation functions
	// leave s_f (or nonexistence) for s0.
	type edge struct {
		from, to string
		fn       int
		declared bool
	}
	var edges []edge
	stateSet := map[string]bool{StateInitial: true, StateFaulty: true}
	for _, tr := range spec.Transitions {
		from := spec.fromState(tr.From)
		to := spec.stateAfter(tr.To)
		if to == "" {
			// Transition into an update/per-thread function: validity
			// declaration only; state unchanged.
			to = from
		}
		f, err := slot(tr.To)
		if err != nil {
			return nil, err
		}
		edges = append(edges, edge{from: from, to: to, fn: f, declared: true})
		stateSet[from] = true
		stateSet[to] = true
	}
	for _, cfn := range spec.Creation {
		f, err := slot(cfn)
		if err != nil {
			return nil, err
		}
		edges = append(edges, edge{from: StateFaulty, to: StateInitial, fn: f})
	}

	m := &StateMachine{spec: spec, keep: make([]bool, nf)}
	for st := range stateSet {
		m.names = append(m.names, st)
	}
	sort.Strings(m.names)
	m.nStates = len(m.names)
	if !stateSet[StateClosed] {
		m.names = append(m.names, StateClosed)
	}
	m.initial, m.closed = m.state(StateInitial), m.state(StateClosed)
	for f, fs := range spec.Funcs {
		m.keep[f] = spec.IsUpdate(fs.Name) || spec.IsPerThread(fs.Name)
	}
	m.sigma = make([]int, m.nStates*nf)
	for i := range m.sigma {
		m.sigma[i] = -1
	}
	for _, e := range edges {
		i := m.state(e.from)*nf + e.fn
		to := m.state(e.to)
		if prev := m.sigma[i]; e.declared && prev >= 0 && prev != to {
			return nil, fmt.Errorf("%w: %s: ambiguous transition σ(%s, %s)", ErrInvalidSpec, spec.Service, e.from, spec.Funcs[e.fn].Name)
		}
		m.sigma[i] = to
	}
	for _, fn := range spec.Restore {
		f, err := slot(fn)
		if err != nil {
			return nil, err
		}
		m.restore = append(m.restore, f)
	}

	// BFS from s0 for shortest walks over pure functions only, trying a
	// state's outgoing functions in name order.
	pure := make([]bool, nf)
	for f, fs := range spec.Funcs {
		pure[f] = spec.IsPure(fs.Name)
	}
	m.walks = make([][]int, len(m.names))
	m.walks[m.initial] = []int{}
	queue := []int{m.initial}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		base := m.walks[cur]
		var fns []int
		for f := 0; f < nf; f++ {
			if pure[f] && m.sigma[cur*nf+f] >= 0 {
				fns = append(fns, f)
			}
		}
		sort.Slice(fns, func(i, j int) bool { return spec.Funcs[fns[i]].Name < spec.Funcs[fns[j]].Name })
		for _, f := range fns {
			nxt := m.sigma[cur*nf+f]
			if m.walks[nxt] != nil {
				continue
			}
			walk := make([]int, len(base)+1)
			copy(walk, base)
			walk[len(base)] = f
			m.walks[nxt] = walk
			queue = append(queue, nxt)
		}
	}

	// Every pure function's state must be walk-reachable.
	for f, fs := range spec.Funcs {
		if !pure[f] {
			continue
		}
		if st := m.state(fs.Name); st < 0 || m.walks[st] == nil {
			return nil, fmt.Errorf("%w: %s: state %q unreachable from s0 through non-blocking transitions", ErrInvalidSpec, spec.Service, fs.Name)
		}
	}
	return m, nil
}

// Spec returns the specification the machine was compiled from.
func (m *StateMachine) Spec() *Spec { return m.spec }

// States returns S_dr in sorted order.
func (m *StateMachine) States() []string {
	out := make([]string, m.nStates)
	copy(out, m.names)
	return out
}

// state returns a state's number, or -1 for an unknown state.
func (m *StateMachine) state(name string) int {
	for i, n := range m.names {
		if n == name {
			return i
		}
	}
	return -1
}

// next is σ by number: the state reached by applying the function in slot
// fn in state st, and whether the transition is valid.
func (m *StateMachine) next(st, fn int) (int, bool) {
	if st == m.closed || st >= m.nStates {
		return 0, false
	}
	if m.keep[fn] {
		return st, true
	}
	nxt := m.sigma[st*len(m.keep)+fn]
	return nxt, nxt >= 0
}

// Next is σ: it returns the shared state reached by applying fn in state,
// and whether the transition is valid. Update and per-thread functions are
// valid in every live state and leave it unchanged; other functions follow
// the declared transitions. Invalid transitions are a fault-detection signal
// (§III-B: "formalizing valid transitions enables fault detection if invalid
// branches are attempted").
func (m *StateMachine) Next(state, fn string) (string, bool) {
	f := m.spec.funcSlot(fn)
	if state == StateClosed || f < 0 {
		return "", false
	}
	if m.keep[f] {
		return state, true
	}
	st := m.state(state)
	if st < 0 {
		return "", false
	}
	nxt, ok := m.next(st, f)
	if !ok {
		return "", false
	}
	return m.names[nxt], true
}

// fnNames renders function slots as names.
func (m *StateMachine) fnNames(slots []int) []string {
	out := make([]string, len(slots))
	for i, f := range slots {
		out[i] = m.spec.Funcs[f].Name
	}
	return out
}

// Walk returns the precomputed shortest pure-function sequence that drives a
// freshly created descriptor (in s0) to the given shared state. The boolean
// is false for unknown states.
func (m *StateMachine) Walk(state string) ([]string, bool) {
	st := m.state(state)
	if st < 0 || m.walks[st] == nil {
		return nil, false
	}
	return m.fnNames(m.walks[st]), true
}

// recoveryWalk returns, as function slots, the full sequence that recovers
// a descriptor created by the function in slot creation from s_f to state
// st: the original creation call, the shortest path from s0 (mechanism
// R0), and finally any sm_restore functions that push tracked meta-data
// back into the server (the "open and lseek" pattern). It is nil when st
// is not walk-reachable.
func (m *StateMachine) recoveryWalk(creation, st int) []int {
	if m.walks[st] == nil {
		return nil
	}
	tail := m.walks[st]
	walk := make([]int, 0, len(tail)+1+len(m.restore))
	walk = append(walk, creation)
	walk = append(walk, tail...)
	return append(walk, m.restore...)
}

// RecoveryWalk returns the full function sequence that recovers a descriptor
// from s_f to the expected shared state: the original creation call, the
// shortest path from s0 (mechanism R0), and finally any sm_restore functions
// that push tracked meta-data back into the server (the "open and lseek"
// pattern).
func (m *StateMachine) RecoveryWalk(creationFn, expected string) ([]string, error) {
	f := m.spec.funcSlot(creationFn)
	if f < 0 || !m.spec.IsCreation(creationFn) {
		return nil, fmt.Errorf("core: %s: %s is not a creation function", m.spec.Service, creationFn)
	}
	st := m.state(expected)
	if st < 0 || m.walks[st] == nil {
		return nil, fmt.Errorf("core: %s: no recovery walk to state %q", m.spec.Service, expected)
	}
	return m.fnNames(m.recoveryWalk(f, st)), nil
}
