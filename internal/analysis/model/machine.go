package model

import (
	"fmt"
	"sort"
	"time"

	"superglue/internal/core"
	"superglue/internal/fault"
)

// conf is one operational configuration of the bounded system: the
// shared state of up to maxK descriptors and the block/hold status of up
// to maxM threads. It is comparable, so it keys the visited set directly.
//
// Descriptor slot values: 0 = absent, 1 = closed, 2+i = the i-th live
// shared state. Thread slot values: 0 = idle, 1+d = blocked on
// descriptor d, 1+maxK+d = holding descriptor d.
type conf struct {
	d [maxK]uint8
	t [maxM]uint8
}

const (
	descAbsent = 0
	descClosed = 1
	descLive   = 2 // first live-state code

	threadIdle = 0
)

func blockedOn(d int) uint8 { return uint8(1 + d) }
func holdingOf(d int) uint8 { return uint8(1 + maxK + d) }

// machine is one spec's compiled product automaton.
type machine struct {
	spec *core.Spec
	sm   *core.StateMachine
	cfg  Config

	// liveStates are the walk-reachable shared states (s0 first, then
	// sorted), indexed by the desc slot codes.
	liveStates []string
	stateCode  map[string]uint8

	// moves precomputed per live state: σ-valid pure functions and their
	// successor state codes, in sorted function order.
	pureMoves map[uint8][]move

	creation []string // sorted creation functions
	// plainBlocks are blocking functions that are not hold functions; a
	// thread blocked on one is woken by T0/T1 and re-contends (sm_reset)
	// or has no replay protocol at all (the SG202 hazard).
	plainBlocks []string
	// brokenBlocks are plain blocking functions with no sm_reset
	// companion: recovery cannot decide how to replay the wait.
	brokenBlocks []string
	holdFns      []string // sorted hold-side functions of sm_hold pairs

	// pol is the recovery policy the spec's client stubs run (the
	// configured policy with the spec's recovery_budget applied): every
	// episode's rung and walk-retry decision is asked of it.
	pol core.RecoveryPolicy
}

// move is one σ-valid operational transition of a live descriptor.
type move struct {
	fn string
	to uint8 // successor desc slot code
}

// edge records how a configuration was first reached, for witness
// reconstruction.
type edge struct {
	prev conf
	step string
}

func newMachine(spec *core.Spec, cfg Config) (*machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("model: %s: %w", spec.Service, err)
	}
	sm, err := core.NewStateMachine(spec)
	if err != nil {
		return nil, fmt.Errorf("model: %s: %w", spec.Service, err)
	}
	m := &machine{spec: spec, sm: sm, cfg: cfg}
	m.pol = core.RecoveryPolicy{
		MaxRetries:     cfg.MaxRetries,
		CascadeRetries: cfg.CascadeRetries,
		Degrade:        !cfg.FailHard,
	}.For(spec)

	// Live states: every state with a recovery walk from s0. s_f and
	// closed are encoded separately.
	var live []string
	for _, st := range sm.States() {
		if st == core.StateFaulty || st == core.StateClosed {
			continue
		}
		if _, ok := sm.Walk(st); ok {
			live = append(live, st)
		}
	}
	sort.Strings(live)
	// s0 first so a fresh descriptor is always code descLive.
	for i, st := range live {
		if st == core.StateInitial && i != 0 {
			live[0], live[i] = live[i], live[0]
			sort.Strings(live[1:])
			break
		}
	}
	if len(live) == 0 || live[0] != core.StateInitial {
		live = append([]string{core.StateInitial}, live...)
	}
	if descLive+len(live) > 255 {
		return nil, fmt.Errorf("model: %s: too many states (%d)", spec.Service, len(live))
	}
	m.liveStates = live
	m.stateCode = make(map[string]uint8, len(live))
	for i, st := range live {
		m.stateCode[st] = uint8(descLive + i)
	}

	// Precompute σ-valid pure moves per live state, including terminal
	// transitions into closed.
	m.pureMoves = make(map[uint8][]move)
	var fns []string
	for _, f := range spec.Funcs {
		if spec.IsPure(f.Name) || spec.IsTerminal(f.Name) || spec.IsReset(f.Name) {
			fns = append(fns, f.Name)
		}
	}
	sort.Strings(fns)
	for _, st := range live {
		code := m.stateCode[st]
		for _, fn := range fns {
			nxt, ok := sm.Next(st, fn)
			if !ok {
				continue
			}
			var to uint8
			switch {
			case nxt == core.StateClosed:
				to = descClosed
			default:
				c, known := m.stateCode[nxt]
				if !known {
					continue // state with no recovery walk: not explorable
				}
				to = c
			}
			m.pureMoves[code] = append(m.pureMoves[code], move{fn: fn, to: to})
		}
	}

	m.creation = append(m.creation, spec.Creation...)
	sort.Strings(m.creation)

	for _, b := range spec.Blocking {
		if _, isHold := spec.HoldFn(b); isHold {
			m.holdFns = append(m.holdFns, b)
			continue
		}
		m.plainBlocks = append(m.plainBlocks, b)
		if !spec.IsReset(b) {
			m.brokenBlocks = append(m.brokenBlocks, b)
		}
	}
	sort.Strings(m.plainBlocks)
	sort.Strings(m.brokenBlocks)
	sort.Strings(m.holdFns)
	return m, nil
}

// stateName renders a desc slot code.
func (m *machine) stateName(code uint8) string {
	switch code {
	case descAbsent:
		return "absent"
	case descClosed:
		return core.StateClosed
	default:
		return m.liveStates[int(code)-descLive]
	}
}

// canon sorts the active thread slots: threads are symmetric, so
// configurations differing only by thread identity collapse. Only the
// first Threads slots participate — the unused tail must stay zero, or
// sorting would migrate block/hold markers out of the active window.
func (m *machine) canon(c conf) conf {
	t := c.t[:m.cfg.Threads]
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	return c
}

// holderOf returns the index of the thread holding descriptor d, or -1.
func (m *machine) holderOf(c conf, d int) int {
	for i := 0; i < m.cfg.Threads; i++ {
		if c.t[i] == holdingOf(d) {
			return i
		}
	}
	return -1
}

// successors enumerates c's operational successors in deterministic
// order, invoking emit with the move description and the canonical
// successor.
func (m *machine) successors(c conf, emit func(step string, next conf)) {
	// Creation into the lowest absent slot (slots are interchangeable
	// until created, so only one is tried).
	for d := 0; d < m.cfg.Descs; d++ {
		if c.d[d] != descAbsent {
			continue
		}
		for _, fn := range m.creation {
			next := c
			next.d[d] = descLive // s0
			emit(fmt.Sprintf("create d%d via %s", d, fn), m.canon(next))
		}
		break
	}
	for d := 0; d < m.cfg.Descs; d++ {
		code := c.d[d]
		if code < descLive {
			continue
		}
		// Pure σ moves (terminal and reset included).
		for _, mv := range m.pureMoves[code] {
			next := c
			next.d[d] = mv.to
			if mv.to == descClosed {
				// Closing releases nothing: holders and blocked threads
				// keep their per-thread state (the kernel does not know
				// about them), which is exactly the hazard window the
				// episode simulation probes.
				emit(fmt.Sprintf("close d%d via %s", d, mv.fn), m.canon(next))
			} else {
				emit(fmt.Sprintf("d%d: %s (%s → %s)", d, mv.fn, m.stateName(code), m.stateName(mv.to)), m.canon(next))
			}
		}
		// Block / hold acquisition by the first idle thread (threads are
		// symmetric; one representative suffices).
		idle := -1
		for i := 0; i < m.cfg.Threads; i++ {
			if c.t[i] == threadIdle {
				idle = i
				break
			}
		}
		if idle >= 0 {
			for _, h := range m.holdFns {
				next := c
				if m.holderOf(c, d) < 0 {
					next.t[idle] = holdingOf(d)
					emit(fmt.Sprintf("thread acquires hold %s on d%d", h, d), m.canon(next))
				} else {
					next.t[idle] = blockedOn(d)
					emit(fmt.Sprintf("thread contends hold %s on d%d (blocked)", h, d), m.canon(next))
				}
			}
			for _, b := range m.plainBlocks {
				next := c
				next.t[idle] = blockedOn(d)
				emit(fmt.Sprintf("thread blocks in %s on d%d", b, d), m.canon(next))
			}
		}
		// Wakeup: a signaler completes the wait of one blocked thread.
		if len(m.spec.Wakeup) > 0 {
			for i := 0; i < m.cfg.Threads; i++ {
				if c.t[i] != blockedOn(d) {
					continue
				}
				next := c
				next.t[i] = threadIdle
				emit(fmt.Sprintf("%s wakes thread blocked on d%d", m.spec.Wakeup[0], d), m.canon(next))
				break
			}
		}
		// Release: a holder releases; the first contender (if any) takes
		// the hold over.
		if h := m.holderOf(c, d); h >= 0 && len(m.holdFns) > 0 {
			if pair, ok := m.spec.HoldFn(m.holdFns[0]); ok {
				next := c
				next.t[h] = threadIdle
				for i := 0; i < m.cfg.Threads; i++ {
					if next.t[i] == blockedOn(d) {
						next.t[i] = holdingOf(d)
						break
					}
				}
				emit(fmt.Sprintf("thread releases d%d via %s", d, pair.Release), m.canon(next))
			}
		}
	}
}

// explore runs the operational BFS from the empty configuration,
// returning the visited set with witness edges and the per-depth
// frontier trajectory.
func (m *machine) explore(deadline time.Time) (map[conf]edge, []int, error) {
	start := conf{}
	visited := map[conf]edge{start: {}}
	frontier := []conf{start}
	var trajectory []int
	for len(frontier) > 0 {
		trajectory = append(trajectory, len(frontier))
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, trajectory, fmt.Errorf("model: %s: deadline exceeded after %d states", m.spec.Service, len(visited))
		}
		var next []conf
		for _, c := range frontier {
			m.successors(c, func(step string, nc conf) {
				if _, seen := visited[nc]; seen {
					return
				}
				if len(visited) >= m.cfg.MaxStates {
					return
				}
				visited[nc] = edge{prev: c, step: step}
				next = append(next, nc)
			})
		}
		if len(visited) >= m.cfg.MaxStates {
			return nil, trajectory, fmt.Errorf("model: %s: state budget %d exceeded (operational)", m.spec.Service, m.cfg.MaxStates)
		}
		frontier = next
	}
	return visited, trajectory, nil
}

// path reconstructs the operational witness prefix leading to c.
func path(visited map[conf]edge, c conf) []string {
	var rev []string
	for {
		e, ok := visited[c]
		if !ok || e.step == "" {
			break
		}
		rev = append(rev, e.step)
		c = e.prev
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// confString renders a configuration for witness traces.
func (m *machine) confString(c conf) string {
	s := "descs["
	for d := 0; d < m.cfg.Descs; d++ {
		if d > 0 {
			s += " "
		}
		s += fmt.Sprintf("d%d=%s", d, m.stateName(c.d[d]))
	}
	s += "] threads["
	for i := 0; i < m.cfg.Threads; i++ {
		if i > 0 {
			s += " "
		}
		switch {
		case c.t[i] == threadIdle:
			s += "idle"
		case c.t[i] >= holdingOf(0):
			s += fmt.Sprintf("holds(d%d)", int(c.t[i])-1-maxK)
		default:
			s += fmt.Sprintf("blocked(d%d)", int(c.t[i])-1)
		}
	}
	return s + "]"
}

// routeKind routes a fault kind as core.System.routeFault does: the
// runtime handler layer (Config.FaultActions), then the engine's own
// declared routing (sm_fault, then the kind's built-in default).
func (m *machine) routeKind(k fault.Kind) core.FaultAction {
	if name, ok := m.cfg.FaultActions[k.String()]; ok {
		if act, valid := core.ParseFaultAction(name); valid && act != core.ActionDefault {
			return act
		}
	}
	return core.DeclaredFaultAction(m.spec, k)
}
