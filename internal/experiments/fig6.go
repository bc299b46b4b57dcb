package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"superglue/internal/c3"
	"superglue/internal/cbuf"
	"superglue/internal/codegen"
	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// StubKind selects the interface binding under measurement.
type StubKind int

// Stub kinds.
const (
	// KindBase is the raw component invocation with no stub logic.
	KindBase StubKind = iota + 1
	// KindC3 is the hand-written C³ stub.
	KindC3
	// KindSuperGlue is the SuperGlue runtime stub.
	KindSuperGlue
)

// String implements fmt.Stringer.
func (k StubKind) String() string {
	switch k {
	case KindBase:
		return "base"
	case KindC3:
		return "c3"
	case KindSuperGlue:
		return "superglue"
	default:
		return fmt.Sprintf("StubKind(%d)", int(k))
	}
}

// opsRig is one service bound through one stub kind on a fresh system:
// a one-time prep and a repeatable measured iteration. The iteration
// exercises the §V-B micro-workload's interface functions.
type opsRig struct {
	sys  *core.System
	comp kernel.ComponentID
	prep func(t *kernel.Thread) error
	iter func(t *kernel.Thread) error
	// recoveryIter, when set, is the operation timed by the recovery
	// benchmarks instead of iter: services whose recovery is dominated by
	// a path the plain iteration does not take (the event manager's
	// G0/U0 creator upcall) probe through it.
	recoveryIter func(t *kernel.Thread) error
}

// specFor returns the parsed IDL spec of a service: the service
// package's shared, parse-once spec, which callers must not mutate.
func specFor(service string) (*core.Spec, error) {
	spec, ok := map[string]func() (*core.Spec, error){
		"lock":  lock.Spec,
		"event": event.Spec,
		"sched": sched.Spec,
		"timer": timer.Spec,
		"mm":    mm.Spec,
		"ramfs": ramfs.Spec,
	}[service]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown service %q", service)
	}
	return spec()
}

func idlSources() map[string]string {
	return map[string]string{
		"lock":  lock.IDLSource(),
		"event": event.IDLSource(),
		"sched": sched.IDLSource(),
		"timer": timer.IDLSource(),
		"mm":    mm.IDLSource(),
		"ramfs": ramfs.IDLSource(),
	}
}

// buildOps assembles a fresh system with the service registered and binds
// its micro-op through the requested stub kind.
func buildOps(service string, kind StubKind) (*opsRig, error) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		return nil, err
	}
	rig := &opsRig{sys: sys}
	reg := map[string]func(*core.System) (kernel.ComponentID, error){
		"lock": lock.Register, "event": event.Register, "sched": sched.Register,
		"timer": timer.Register, "mm": mm.Register, "ramfs": ramfs.Register,
	}[service]
	if reg == nil {
		return nil, fmt.Errorf("experiments: unknown service %q", service)
	}
	if rig.comp, err = reg(sys); err != nil {
		return nil, err
	}
	switch kind {
	case KindBase:
		cl, err := sys.NewClient("bench-app")
		if err != nil {
			return nil, err
		}
		bindBase(rig, service, cl)
	case KindC3:
		cl, err := c3.NewClient(sys, "bench-app")
		if err != nil {
			return nil, err
		}
		if err := bindC3(rig, service, cl); err != nil {
			return nil, err
		}
	case KindSuperGlue:
		cl, err := sys.NewClient("bench-app")
		if err != nil {
			return nil, err
		}
		if err := bindSuperGlue(rig, service, cl); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown stub kind %d", int(kind))
	}
	return rig, nil
}

// bindSuperGlue binds through the typed SuperGlue clients.
func bindSuperGlue(rig *opsRig, service string, cl *core.Client) error {
	switch service {
	case "lock":
		c, err := lock.NewClient(cl, rig.comp)
		if err != nil {
			return err
		}
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = c.Alloc(t)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if err := c.Take(t, id); err != nil {
				return err
			}
			return c.Release(t, id)
		}
	case "event":
		c, err := event.NewClient(cl, rig.comp)
		if err != nil {
			return err
		}
		other, err := rig.sys.NewClient("bench-other")
		if err != nil {
			return err
		}
		oc, err := event.NewClient(other, rig.comp)
		if err != nil {
			return err
		}
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = c.Split(t, 0, 0)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := c.Trigger(t, id); err != nil {
				return err
			}
			_, err := c.Wait(t, id)
			return err
		}
		// Recovery probe: a non-creator triggers with a (stale) global ID,
		// exercising the full G0 path — storage resolve, EINVAL, creator
		// upcall (U0), replay — which is why the event manager is the most
		// expensive service to recover (Fig. 6(b) commentary).
		rig.recoveryIter = func(t *kernel.Thread) error {
			if _, err := oc.Trigger(t, id); err != nil {
				return err
			}
			_, err := c.Wait(t, id)
			return err
		}
	case "sched":
		c, err := sched.NewClient(cl, rig.comp)
		if err != nil {
			return err
		}
		rig.prep = func(t *kernel.Thread) error {
			_, err := c.Setup(t, t.Prio())
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if err := c.Wakeup(t, t.ID()); err != nil {
				return err
			}
			return c.Blk(t)
		}
	case "timer":
		c, err := timer.NewClient(cl, rig.comp)
		if err != nil {
			return err
		}
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = c.Alloc(t, 1)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			_, err := c.Wait(t, id)
			return err
		}
	case "mm":
		c, err := mm.NewClient(cl, rig.comp)
		if err != nil {
			return err
		}
		const root = kernel.Word(0x10_0000)
		rig.prep = func(t *kernel.Thread) error {
			_, err := c.GetPage(t, root)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := c.AliasPage(t, root, cl.ID(), 0x20_0000); err != nil {
				return err
			}
			return c.ReleasePage(t, 0x20_0000)
		}
	case "ramfs":
		c, err := ramfs.NewClient(cl, rig.comp)
		if err != nil {
			return err
		}
		var fd kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			fd, err = c.Open(t, "/bench.dat")
			if err != nil {
				return err
			}
			_, err = c.Write(t, fd, []byte("benchmark payload"))
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := c.Lseek(t, fd, 0); err != nil {
				return err
			}
			_, err := c.Read(t, fd, 8)
			return err
		}
	default:
		return fmt.Errorf("experiments: unknown service %q", service)
	}
	return nil
}

// bindC3 binds through the hand-written C³ stubs.
func bindC3(rig *opsRig, service string, cl *c3.Client) error {
	switch service {
	case "lock":
		st := c3.NewLockStub(cl, rig.comp)
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = st.Alloc(t)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if err := st.Take(t, id); err != nil {
				return err
			}
			return st.Release(t, id)
		}
	case "event":
		st, err := c3.NewEventStub(cl, rig.comp)
		if err != nil {
			return err
		}
		other, err := c3.NewClient(rig.sys, "bench-other")
		if err != nil {
			return err
		}
		ost, err := c3.NewEventStub(other, rig.comp)
		if err != nil {
			return err
		}
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = st.Split(t, 0, 0)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := st.Trigger(t, id); err != nil {
				return err
			}
			_, err := st.Wait(t, id)
			return err
		}
		rig.recoveryIter = func(t *kernel.Thread) error {
			if _, err := ost.Trigger(t, id); err != nil {
				return err
			}
			_, err := st.Wait(t, id)
			return err
		}
	case "sched":
		st := c3.NewSchedStub(cl, rig.comp)
		rig.prep = func(t *kernel.Thread) error {
			_, err := st.Setup(t, t.Prio())
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if err := st.Wakeup(t, t.ID()); err != nil {
				return err
			}
			return st.Blk(t)
		}
	case "timer":
		st := c3.NewTimerStub(cl, rig.comp)
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = st.Alloc(t, 1)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			_, err := st.Wait(t, id)
			return err
		}
	case "mm":
		st := c3.NewMMStub(cl, rig.comp)
		const root = kernel.Word(0x10_0000)
		rig.prep = func(t *kernel.Thread) error {
			_, err := st.GetPage(t, root)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := st.Alias(t, cl.ID(), root, cl.ID(), 0x20_0000); err != nil {
				return err
			}
			return st.Release(t, cl.ID(), 0x20_0000)
		}
	case "ramfs":
		st := c3.NewFSStub(cl, rig.comp)
		var fd kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			fd, err = st.Open(t, "/bench.dat")
			if err != nil {
				return err
			}
			_, err = st.Write(t, fd, []byte("benchmark payload"))
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := st.Lseek(t, fd, 0); err != nil {
				return err
			}
			_, err := st.Read(t, fd, 8)
			return err
		}
	default:
		return fmt.Errorf("experiments: unknown service %q", service)
	}
	return nil
}

// bindBase binds through raw invocations (no tracking, no recovery).
func bindBase(rig *opsRig, service string, cl *core.Client) {
	k := rig.sys.Kernel()
	cm := rig.sys.Cbufs()
	self := kernel.Word(cl.ID())
	comp := rig.comp
	switch service {
	case "lock":
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = k.Invoke(t, comp, lock.FnAlloc, self)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := k.Invoke(t, comp, lock.FnTake, self, id, kernel.Word(t.ID())); err != nil {
				return err
			}
			_, err := k.Invoke(t, comp, lock.FnRelease, self, id, kernel.Word(t.ID()))
			return err
		}
	case "event":
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = k.Invoke(t, comp, event.FnSplit, self, 0, 0)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := k.Invoke(t, comp, event.FnTrigger, self, id); err != nil {
				return err
			}
			_, err := k.Invoke(t, comp, event.FnWait, self, id)
			return err
		}
	case "sched":
		rig.prep = func(t *kernel.Thread) error {
			_, err := k.Invoke(t, comp, sched.FnSetup, self, kernel.Word(t.ID()), kernel.Word(t.Prio()))
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := k.Invoke(t, comp, sched.FnWakeup, self, kernel.Word(t.ID())); err != nil {
				return err
			}
			_, err := k.Invoke(t, comp, sched.FnBlk, self, kernel.Word(t.ID()))
			return err
		}
	case "timer":
		var id kernel.Word
		rig.prep = func(t *kernel.Thread) error {
			var err error
			id, err = k.Invoke(t, comp, timer.FnAlloc, self, 1)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			_, err := k.Invoke(t, comp, timer.FnWait, self, id)
			return err
		}
	case "mm":
		const root = kernel.Word(0x10_0000)
		rig.prep = func(t *kernel.Thread) error {
			_, err := k.Invoke(t, comp, mm.FnGetPage, self, root, 0)
			return err
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := k.Invoke(t, comp, mm.FnAliasPage, self, root, self, 0x20_0000); err != nil {
				return err
			}
			_, err := k.Invoke(t, comp, mm.FnReleasePage, self, 0x20_0000)
			return err
		}
	case "ramfs":
		var fd kernel.Word
		var rbuf cbuf.ID
		rig.prep = func(t *kernel.Thread) error {
			path := "/bench.dat"
			pbuf, err := cm.Alloc(cbuf.ComponentID(cl.ID()), len(path))
			if err != nil {
				return err
			}
			if err := cm.Write(pbuf, cbuf.ComponentID(cl.ID()), 0, []byte(path)); err != nil {
				return err
			}
			if err := cm.Map(pbuf, cbuf.ComponentID(comp)); err != nil {
				return err
			}
			if fd, err = k.Invoke(t, comp, ramfs.FnOpen, self, kernel.Word(pbuf), kernel.Word(len(path))); err != nil {
				return err
			}
			payload := []byte("benchmark payload")
			dbuf, err := cm.Alloc(cbuf.ComponentID(cl.ID()), len(payload))
			if err != nil {
				return err
			}
			if err := cm.Write(dbuf, cbuf.ComponentID(cl.ID()), 0, payload); err != nil {
				return err
			}
			if err := cm.Map(dbuf, cbuf.ComponentID(comp)); err != nil {
				return err
			}
			if _, err := k.Invoke(t, comp, ramfs.FnWrite, self, fd, kernel.Word(dbuf), kernel.Word(len(payload))); err != nil {
				return err
			}
			if rbuf, err = cm.Alloc(cbuf.ComponentID(cl.ID()), 8); err != nil {
				return err
			}
			return cm.Delegate(rbuf, cbuf.ComponentID(cl.ID()), cbuf.ComponentID(comp))
		}
		rig.iter = func(t *kernel.Thread) error {
			if _, err := k.Invoke(t, comp, ramfs.FnLseek, fd, 0); err != nil {
				return err
			}
			_, err := k.Invoke(t, comp, ramfs.FnRead, self, fd, kernel.Word(rbuf), 8)
			return err
		}
	}
}

// RunMicrobench runs n iterations of the service's §V-B micro-op through
// the given stub kind on a fresh system; the caller (a testing.B harness)
// does the timing.
func RunMicrobench(service string, kind StubKind, n int) error {
	rig, err := buildOps(service, kind)
	if err != nil {
		return err
	}
	var runErr error
	if _, err := rig.sys.Kernel().CreateThread(nil, "bench", 10, func(t *kernel.Thread) {
		if err := rig.prep(t); err != nil {
			runErr = err
			return
		}
		for i := 0; i < n; i++ {
			if err := rig.iter(t); err != nil {
				runErr = err
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := rig.sys.Kernel().Run(); err != nil {
		return err
	}
	return runErr
}

// RunRecoveryBench performs n fault-then-recover cycles of the service's
// micro-op through the given stub kind (one µ-reboot + descriptor recovery
// + redo per cycle); the caller does the timing.
func RunRecoveryBench(service string, kind StubKind, n int) error {
	rig, err := buildOps(service, kind)
	if err != nil {
		return err
	}
	k := rig.sys.Kernel()
	probe := rig.iter
	if rig.recoveryIter != nil {
		probe = rig.recoveryIter
	}
	var runErr error
	if _, err := k.CreateThread(nil, "bench", 10, func(t *kernel.Thread) {
		if err := rig.prep(t); err != nil {
			runErr = err
			return
		}
		for i := 0; i < n; i++ {
			if err := k.FailComponent(rig.comp); err != nil {
				runErr = err
				return
			}
			if err := probe(t); err != nil {
				runErr = err
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := k.Run(); err != nil {
		return err
	}
	return runErr
}

// Fig6aRow is one service's infrastructure-overhead measurement (µs per
// micro-benchmark iteration).
type Fig6aRow struct {
	Service                    string
	BaseUS, BaseStdev          float64
	C3US, C3Stdev              float64
	SGUS, SGStdev              float64
	C3OverheadUS, SGOverheadUS float64
	// BaseMedianUS and SGMedianUS are the per-iteration medians, a
	// per-variant cost that one slow sample cannot move.
	BaseMedianUS, SGMedianUS float64
}

// Fig6a measures the descriptor-tracking infrastructure overhead per
// service: the §V-B micro-benchmark iteration cost through raw invocations,
// C³ stubs, and SuperGlue stubs.
func Fig6a(iters int) ([]Fig6aRow, error) {
	if iters <= 0 {
		iters = 2000
	}
	var rows []Fig6aRow
	for _, svc := range Services() {
		row := Fig6aRow{Service: svc}
		for _, kind := range []StubKind{KindBase, KindC3, KindSuperGlue} {
			mean, stdev, med, err := timeIters(svc, kind, iters)
			if err != nil {
				return nil, fmt.Errorf("fig6a %s/%v: %w", svc, kind, err)
			}
			switch kind {
			case KindBase:
				row.BaseUS, row.BaseStdev, row.BaseMedianUS = mean, stdev, med
			case KindC3:
				row.C3US, row.C3Stdev = mean, stdev
			case KindSuperGlue:
				row.SGUS, row.SGStdev, row.SGMedianUS = mean, stdev, med
			}
		}
		row.C3OverheadUS = row.C3US - row.BaseUS
		row.SGOverheadUS = row.SGUS - row.BaseUS
		rows = append(rows, row)
	}
	return rows, nil
}

// timeIters runs the micro-op iters times on a fresh system and returns the
// per-iteration mean, stdev and median in microseconds.
func timeIters(service string, kind StubKind, iters int) (mean, stdev, med float64, err error) {
	rig, err := buildOps(service, kind)
	if err != nil {
		return 0, 0, 0, err
	}
	samples := make([]float64, 0, iters)
	var runErr error
	if _, err := rig.sys.Kernel().CreateThread(nil, "bench", 10, func(t *kernel.Thread) {
		if err := rig.prep(t); err != nil {
			runErr = err
			return
		}
		// Warm up.
		for i := 0; i < 16; i++ {
			if err := rig.iter(t); err != nil {
				runErr = err
				return
			}
		}
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := rig.iter(t); err != nil {
				runErr = err
				return
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1000.0)
		}
	}); err != nil {
		return 0, 0, 0, err
	}
	if err := rig.sys.Kernel().Run(); err != nil {
		return 0, 0, 0, err
	}
	if runErr != nil {
		return 0, 0, 0, runErr
	}
	mean, stdev = meanStdev(samples)
	return mean, stdev, median(samples), nil
}

// Fig6bRow is one service's per-descriptor recovery cost (µs).
type Fig6bRow struct {
	Service       string
	C3US, C3Stdev float64
	SGUS, SGStdev float64
	Mechanisms    []core.Mechanism
}

// Fig6b measures the per-descriptor recovery overhead: the extra time the
// first post-fault operation takes (µ-reboot amortized across it, plus the
// recovery walk and redo), compared with the same operation fault-free.
func Fig6b(trials int) ([]Fig6bRow, error) {
	if trials <= 0 {
		trials = 300
	}
	var rows []Fig6bRow
	for _, svc := range Services() {
		spec, err := specFor(svc)
		if err != nil {
			return nil, err
		}
		row := Fig6bRow{Service: svc, Mechanisms: spec.Mechanisms()}
		for _, kind := range []StubKind{KindC3, KindSuperGlue} {
			mean, stdev, err := timeRecovery(svc, kind, trials)
			if err != nil {
				return nil, fmt.Errorf("fig6b %s/%v: %w", svc, kind, err)
			}
			if kind == KindC3 {
				row.C3US, row.C3Stdev = mean, stdev
			} else {
				row.SGUS, row.SGStdev = mean, stdev
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// timeRecovery measures recovery cost: per trial, fail the component and
// time the next operation (which µ-reboots, recovers the descriptor, and
// redoes the call), subtracting the fault-free operation cost.
func timeRecovery(service string, kind StubKind, trials int) (float64, float64, error) {
	rig, err := buildOps(service, kind)
	if err != nil {
		return 0, 0, err
	}
	k := rig.sys.Kernel()
	probe := rig.iter
	if rig.recoveryIter != nil {
		probe = rig.recoveryIter
	}
	samples := make([]float64, 0, trials)
	var baseMean float64
	var runErr error
	if _, err := k.CreateThread(nil, "bench", 10, func(t *kernel.Thread) {
		if err := rig.prep(t); err != nil {
			runErr = err
			return
		}
		base := make([]float64, 0, 64)
		for i := 0; i < 64; i++ {
			t0 := time.Now()
			if err := probe(t); err != nil {
				runErr = err
				return
			}
			base = append(base, float64(time.Since(t0).Nanoseconds())/1000.0)
		}
		baseMean, _ = meanStdev(base)
		for i := 0; i < trials; i++ {
			if err := k.FailComponent(rig.comp); err != nil {
				runErr = err
				return
			}
			t0 := time.Now()
			if err := probe(t); err != nil {
				runErr = err
				return
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1000.0)
		}
	}); err != nil {
		return 0, 0, err
	}
	if err := k.Run(); err != nil {
		return 0, 0, err
	}
	if runErr != nil {
		return 0, 0, runErr
	}
	mean, stdev := meanStdev(samples)
	recovery := mean - baseMean
	if recovery < 0 {
		recovery = 0
	}
	return recovery, stdev, nil
}

// Fig6cRow is one service's lines-of-code comparison.
type Fig6cRow struct {
	Service      string
	IDLLOC       int
	GeneratedLOC int
	C3StubLOC    int
}

// Fig6c counts the declarative IDL size, the typed client sgc generates
// from it, and the hand-written C³ stub it replaces. The recovery engine
// the generated clients call is shared by all six and is counted once, by
// EngineLOC.
func Fig6c() ([]Fig6cRow, error) {
	var rows []Fig6cRow
	for _, svc := range Services() {
		spec, err := specFor(svc)
		if err != nil {
			return nil, err
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			return nil, err
		}
		files, err := codegen.Generate(ir)
		if err != nil {
			return nil, err
		}
		gen := 0
		for _, content := range files {
			gen += CountLOC(content)
		}
		c3Src, ok := c3.StubSource(svc)
		if !ok {
			return nil, fmt.Errorf("fig6c: no C³ stub source for %s", svc)
		}
		rows = append(rows, Fig6cRow{
			Service:      svc,
			IDLLOC:       CountLOC(idlSources()[svc]),
			GeneratedLOC: gen,
			C3StubLOC:    CountLOC(c3Src),
		})
	}
	return rows, nil
}

// EngineLOC counts the one recovery engine every generated client calls
// (core.EngineSource), by the same convention as the per-service rows,
// and names its files.
func EngineLOC() (loc int, files []string) {
	for name, src := range core.EngineSource() {
		loc += CountLOC(src)
		files = append(files, name)
	}
	sort.Strings(files)
	return loc, files
}

// RenderFig6a writes the Fig. 6(a) table.
func RenderFig6a(w io.Writer, rows []Fig6aRow) {
	fmt.Fprintf(w, "Fig 6(a): infrastructure overhead with descriptor state tracking (µs/iteration)\n")
	fmt.Fprintf(w, "%-8s %14s %18s %18s %12s %12s\n", "service", "base (µs)", "C3 (µs ±σ)", "SuperGlue (µs ±σ)", "C3 ovh", "SG ovh")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14.3f %11.3f ±%5.3f %11.3f ±%5.3f %12.3f %12.3f\n",
			r.Service, r.BaseUS, r.C3US, r.C3Stdev, r.SGUS, r.SGStdev, r.C3OverheadUS, r.SGOverheadUS)
	}
}

// RenderFig6b writes the Fig. 6(b) table.
func RenderFig6b(w io.Writer, rows []Fig6bRow) {
	fmt.Fprintf(w, "Fig 6(b): per-descriptor recovery overhead (µs)\n")
	fmt.Fprintf(w, "%-8s %18s %18s  %s\n", "service", "C3 (µs ±σ)", "SuperGlue (µs ±σ)", "mechanisms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %11.3f ±%5.3f %11.3f ±%5.3f  %v\n",
			r.Service, r.C3US, r.C3Stdev, r.SGUS, r.SGStdev, r.Mechanisms)
	}
}

// RenderFig6c writes the Fig. 6(c) table.
func RenderFig6c(w io.Writer, rows []Fig6cRow) {
	fmt.Fprintf(w, "Fig 6(c): recovery code size (LOC)\n")
	fmt.Fprintf(w, "%-8s %10s %14s %16s %8s\n", "service", "IDL", "generated", "C3 hand-written", "C3/IDL")
	for _, r := range rows {
		ratio := 0.0
		if r.IDLLOC > 0 {
			ratio = float64(r.C3StubLOC) / float64(r.IDLLOC)
		}
		fmt.Fprintf(w, "%-8s %10d %14d %16d %7.1fx\n", r.Service, r.IDLLOC, r.GeneratedLOC, r.C3StubLOC, ratio)
	}
	loc, files := EngineLOC()
	fmt.Fprintf(w, "generated = the typed client; the engine it calls (internal/core %s) is %d LOC, shared by all six\n",
		strings.Join(files, " "), loc)
}
