package core_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"superglue/internal/core"
	"superglue/internal/idl"
	"superglue/internal/kernel"
	"superglue/internal/services/builtin"
)

// builtinSpecs parses the six system services' specifications.
func builtinSpecs(t *testing.T) []*core.Spec {
	t.Helper()
	var specs []*core.Spec
	for _, src := range builtin.Sources() {
		spec, err := idl.Parse(src.Service, src.IDL)
		if err != nil {
			t.Fatalf("%s: %v", src.Service, err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestRecoveryReplaysRecoveryWalk checks, for every builtin spec, that
// the recovery walk the stub replays for each (creation function, state)
// pair is the one RecoveryWalk names: a descriptor is driven into the
// state, the server is µ-rebooted, and the next call's recovery must
// invoke exactly the walk's functions, in order, before the call itself.
func TestRecoveryReplaysRecoveryWalk(t *testing.T) {
	for _, spec := range builtinSpecs(t) {
		t.Run(spec.Service, func(t *testing.T) {
			r := newEchoRig(t, spec)
			r.run(t, func(th *kernel.Thread) {
				for _, cfn := range spec.Creation {
					for _, st := range r.sm.States() {
						if _, ok := r.sm.Walk(st); !ok {
							continue
						}
						trigger := r.validFrom(st)
						if trigger == nil {
							continue
						}
						key, err := r.createIn(th, spec.Func(cfn), st)
						if err != nil {
							t.Error(err)
							return
						}
						want, err := r.sm.RecoveryWalk(cfn, st)
						if err != nil {
							t.Error(err)
							return
						}
						k := r.sys.Kernel()
						if err := k.FailComponent(r.comp); err != nil {
							t.Error(err)
							return
						}
						if _, err := k.Reboot(th, r.comp); err != nil {
							t.Error(err)
							return
						}
						r.log = r.log[:0]
						if _, err := r.st.Call(th, trigger.Name, r.args(trigger, key)...); err != nil {
							t.Errorf("%s from %s after reboot: %v", trigger.Name, st, err)
							return
						}
						if got := r.log[:len(r.log)-1]; !slices.Equal(got, want) {
							t.Errorf("recovering a %s descriptor in %s replayed %v; RecoveryWalk = %v", cfn, st, got, want)
						}
					}
				}
			})
		})
	}
}

// TestStubFollowsNext checks, for every builtin spec, that the stub
// accepts a call on a descriptor in each reachable state exactly when
// Next does, and leaves the descriptor in the state Next names; and that
// Next is exactly σ as the spec declares it: each declared transition,
// each creation function's edge out of s_f, and update and per-thread
// functions valid in every live state — nothing else.
func TestStubFollowsNext(t *testing.T) {
	for _, spec := range builtinSpecs(t) {
		t.Run(spec.Service, func(t *testing.T) {
			r := newEchoRig(t, spec)
			declared := make(map[[2]string]string)
			for _, tr := range spec.Transitions {
				from := spec.TransitionFromState(tr.From)
				to := spec.StateAfter(tr.To)
				if to == "" {
					to = from
				}
				declared[[2]string{from, tr.To}] = to
			}
			for _, cfn := range spec.Creation {
				declared[[2]string{core.StateFaulty, cfn}] = core.StateInitial
			}
			for _, st := range append(r.sm.States(), core.StateClosed) {
				for _, f := range spec.Funcs {
					next, ok := r.sm.Next(st, f.Name)
					want, wok := declared[[2]string{st, f.Name}]
					if st != core.StateClosed && (spec.IsUpdate(f.Name) || spec.IsPerThread(f.Name)) {
						want, wok = st, true
					}
					if st == core.StateClosed {
						want, wok = "", false
					}
					if next != want || ok != wok {
						t.Errorf("Next(%s, %s) = (%q, %v); declared σ gives (%q, %v)", st, f.Name, next, ok, want, wok)
					}
				}
			}
			r.run(t, func(th *kernel.Thread) {
				for _, st := range r.sm.States() {
					if _, ok := r.sm.Walk(st); !ok {
						continue
					}
					for _, f := range spec.Funcs {
						if spec.IsCreation(f.Name) {
							continue
						}
						key, err := r.createIn(th, spec.Func(spec.Creation[0]), st)
						if err != nil {
							t.Error(err)
							return
						}
						next, ok := r.sm.Next(st, f.Name)
						_, err = r.st.Call(th, f.Name, r.args(f, key)...)
						if ok != (err == nil) || (!ok && !errors.Is(err, core.ErrInvalidTransition)) {
							t.Errorf("%s in %s: err = %v; Next says valid = %v", f.Name, st, err, ok)
							continue
						}
						if d, tracked := r.st.Descriptor(key); ok && tracked && !d.Closed && d.State() != next {
							t.Errorf("%s in %s: descriptor in %s; Next = %s", f.Name, st, d.State(), next)
						}
					}
				}
			})
		})
	}
}

// echoRig is one builtin interface registered over an echoServer, with
// one client stub.
type echoRig struct {
	spec *core.Spec
	sm   *core.StateMachine
	sys  *core.System
	comp kernel.ComponentID
	st   *core.ClientStub
	// log lists the functions the server instances dispatched.
	log []string
	// nextID is the next client-chosen descriptor ID.
	nextID kernel.Word
}

func newEchoRig(t *testing.T, spec *core.Spec) *echoRig {
	t.Helper()
	r := &echoRig{spec: spec, nextID: 0x1000}
	var err error
	if r.sm, err = core.NewStateMachine(spec); err != nil {
		t.Fatal(err)
	}
	if r.sys, err = core.NewSystem(core.OnDemand); err != nil {
		t.Fatal(err)
	}
	if r.comp, err = r.sys.RegisterServer(spec, func() kernel.Service { return &echoServer{spec: spec, log: &r.log} }); err != nil {
		t.Fatal(err)
	}
	cl, err := r.sys.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if r.st, err = cl.Stub(r.comp); err != nil {
		t.Fatal(err)
	}
	return r
}

// run runs body on one thread of the rig's machine.
func (r *echoRig) run(t *testing.T, body func(th *kernel.Thread)) {
	t.Helper()
	k := r.sys.Kernel()
	if _, err := k.CreateThread(nil, "main", 10, body); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// args builds f's arguments for the descriptor key: a zero parent names
// no parent, and every other value is arbitrary.
func (r *echoRig) args(f *core.FuncSpec, key core.DescKey) []kernel.Word {
	out := make([]kernel.Word, len(f.Params))
	for i, p := range f.Params {
		switch p.Role {
		case core.RoleDesc:
			out[i] = key.ID
		case core.RoleDescNS:
			out[i] = key.NS
		case core.RoleDescData, core.RolePlain:
			out[i] = 1
		}
	}
	return out
}

// createIn creates a descriptor with the creation function create and
// drives it along Walk(st) into state st.
func (r *echoRig) createIn(th *kernel.Thread, create *core.FuncSpec, st string) (core.DescKey, error) {
	key := core.DescKey{ID: r.nextID}
	r.nextID++
	if create.NSIdx() >= 0 {
		key.NS = 7
	}
	ret, err := r.st.Call(th, create.Name, r.args(create, key)...)
	if err != nil {
		return key, fmt.Errorf("%s: %w", create.Name, err)
	}
	if create.RetDescID {
		key.ID = ret
	}
	walk, _ := r.sm.Walk(st)
	for _, fn := range walk {
		if _, err := r.st.Call(th, fn, r.args(r.spec.Func(fn), key)...); err != nil {
			return key, fmt.Errorf("%s toward %s: %w", fn, st, err)
		}
	}
	if d, _ := r.st.Descriptor(key); d.State() != st {
		return key, fmt.Errorf("walk to %s left the descriptor in %s", st, d.State())
	}
	return key, nil
}

// validFrom returns a non-creation function valid in state st, or nil.
func (r *echoRig) validFrom(st string) *core.FuncSpec {
	for _, f := range r.spec.Funcs {
		if _, ok := r.sm.Next(st, f.Name); ok && !r.spec.IsCreation(f.Name) {
			return f
		}
	}
	return nil
}

// echoServer accepts every call of an interface and logs it: a creation
// function returns a fresh descriptor ID, everything else returns
// echoRet.
type echoServer struct {
	spec *core.Spec
	log  *[]string
	next kernel.Word
}

const echoRet = 3

func (s *echoServer) Name() string                      { return s.spec.Service }
func (s *echoServer) Init(bc *kernel.BootContext) error { return nil }
func (s *echoServer) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	*s.log = append(*s.log, fn)
	if s.spec.IsCreation(fn) {
		s.next++
		return s.next, nil
	}
	return echoRet, nil
}

// TestDescriptorReportsTrackedData creates one descriptor per builtin
// spec, drives it through every function the state machine allows with
// fresh desc_data values, and checks after each call that DataValue
// reports every tracked name with the last value given (plus the
// accumulated return values of desc_data_retval_acc).
func TestDescriptorReportsTrackedData(t *testing.T) {
	for _, spec := range builtinSpecs(t) {
		t.Run(spec.Service, func(t *testing.T) { checkTrackedData(t, spec) })
	}
}

func checkTrackedData(t *testing.T, spec *core.Spec) {
	r := newEchoRig(t, spec)
	var names []string
	for _, f := range spec.Funcs {
		for _, p := range f.Params {
			if p.Role == core.RoleDescData && !slices.Contains(names, p.Name) {
				names = append(names, p.Name)
			}
		}
		if f.RetAccum != "" && !slices.Contains(names, f.RetAccum) {
			names = append(names, f.RetAccum)
		}
	}
	create := spec.Func(spec.Creation[0])
	want := make(map[string]kernel.Word)
	value := kernel.Word(100)
	key := core.DescKey{ID: 0x1000}
	if create.NSIdx() >= 0 {
		key.NS = 7
	}
	// track calls f with a fresh value for every desc_data parameter and
	// records what D_dr should then hold.
	track := func(th *kernel.Thread, f *core.FuncSpec) error {
		a := r.args(f, key)
		for i, p := range f.Params {
			if p.Role == core.RoleDescData {
				value++
				a[i] = value
			}
		}
		ret, err := r.st.Call(th, f.Name, a...)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		for i, p := range f.Params {
			if p.Role == core.RoleDescData {
				want[p.Name] = a[i]
			}
		}
		if f.RetAccum != "" {
			want[f.RetAccum] += ret
		}
		if f == create && f.RetDescID {
			key.ID = ret
		}
		return nil
	}
	check := func(after string) {
		d, ok := r.st.Descriptor(key)
		if !ok {
			t.Fatalf("after %s: descriptor %v not tracked", after, key)
		}
		for _, name := range names {
			if got, ok := d.DataValue(name); !ok || got != want[name] {
				t.Errorf("after %s: DataValue(%s) = (%d, %v); want (%d, true)", after, name, got, ok, want[name])
			}
		}
		if _, ok := d.DataValue("no-such-field"); ok {
			t.Errorf("DataValue reports an untracked name")
		}
	}

	r.run(t, func(th *kernel.Thread) {
		if err := track(th, create); err != nil {
			t.Error(err)
			return
		}
		check(create.Name)
		// Two passes, so every update overwrites a value given before.
		for pass := 0; pass < 2; pass++ {
			for _, f := range spec.Funcs {
				if spec.IsCreation(f.Name) || spec.IsTerminal(f.Name) {
					continue
				}
				d, _ := r.st.Descriptor(key)
				if _, ok := r.sm.Next(d.State(), f.Name); !ok {
					continue
				}
				if err := track(th, f); err != nil {
					t.Error(err)
					return
				}
				check(f.Name)
			}
		}
	})
}
