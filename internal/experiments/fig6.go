package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"superglue/internal/binding"
	"superglue/internal/c3"
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

// serviceRow is one evaluation service: its names, its IDL, and its §V-B
// micro-op, written once against the binding interfaces and run under
// every binding kind by Fig. 6 and the repository benchmarks.
type serviceRow struct {
	name     string // the service package, e.g. "ramfs"
	display  string // the benchmark name, e.g. "FS" in BenchmarkTrackingFS
	spec     func() (*core.Spec, error)
	idl      func() string
	register func(*core.System) (kernel.ComponentID, error)
	// bind binds the service on the rig's client and sets its micro-op.
	bind func(r *opsRig) error
}

// serviceRows lists the evaluation services in the paper's presentation
// order.
var serviceRows = []serviceRow{
	{"sched", "Sched", sched.Spec, sched.IDLSource, sched.Register, schedOp},
	{"mm", "MM", mm.Spec, mm.IDLSource, mm.Register, mmOp},
	{"ramfs", "FS", ramfs.Spec, ramfs.IDLSource, ramfs.Register, fsOp},
	{"lock", "Lock", lock.Spec, lock.IDLSource, lock.Register, lockOp},
	{"event", "Event", event.Spec, event.IDLSource, event.Register, eventOp},
	{"timer", "Timer", timer.Spec, timer.IDLSource, timer.Register, timerOp},
}

// opsRig is one service bound through one binding kind on a fresh system:
// a one-time prep, a repeatable measured iteration, and the probe the
// recovery benchmarks time after each fault.
type opsRig struct {
	sys        *core.System
	kind       binding.Kind
	comp       kernel.ComponentID
	cl         *binding.Client
	prep, iter func(t *kernel.Thread) error
	// probe is iter unless the service's recovery is dominated by a path
	// the plain iteration does not take (the event manager's G0/U0
	// creator upcall).
	probe func(t *kernel.Thread) error
}

// buildOps assembles a fresh system with only the service registered and
// binds its micro-op through the requested kind.
func buildOps(service string, kind binding.Kind) (*opsRig, error) {
	i := slices.IndexFunc(serviceRows, func(r serviceRow) bool { return r.name == service })
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown service %q", service)
	}
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		return nil, err
	}
	rig := &opsRig{sys: sys, kind: kind}
	if rig.comp, err = serviceRows[i].register(sys); err != nil {
		return nil, err
	}
	if rig.cl, err = binding.NewClient(sys, kind, "bench-app"); err != nil {
		return nil, err
	}
	if err := serviceRows[i].bind(rig); err != nil {
		return nil, err
	}
	if rig.probe == nil {
		rig.probe = rig.iter
	}
	return rig, nil
}

// run runs prep and then body on the rig's bench thread.
func (r *opsRig) run(body func(t *kernel.Thread) error) error {
	return runBench(r.sys.Kernel(), func(t *kernel.Thread) error {
		if err := r.prep(t); err != nil {
			return err
		}
		return body(t)
	})
}

// repeat runs op n times, stopping at the first error.
func repeat(t *kernel.Thread, n int, op func(t *kernel.Thread) error) error {
	for i := 0; i < n; i++ {
		if err := op(t); err != nil {
			return err
		}
	}
	return nil
}

func schedOp(r *opsRig) error {
	c, err := r.cl.Sched(r.comp)
	if err != nil {
		return err
	}
	r.prep = func(t *kernel.Thread) error {
		_, err := c.Setup(t, t.Prio())
		return err
	}
	r.iter = func(t *kernel.Thread) error {
		if err := c.Wakeup(t, t.ID()); err != nil {
			return err
		}
		return c.Blk(t)
	}
	return nil
}

func mmOp(r *opsRig) error {
	c, err := r.cl.MM(r.comp)
	if err != nil {
		return err
	}
	const root, alias = kernel.Word(0x10_0000), kernel.Word(0x20_0000)
	self := r.cl.ID()
	r.prep = func(t *kernel.Thread) error {
		_, err := c.GetPage(t, root)
		return err
	}
	r.iter = func(t *kernel.Thread) error {
		if _, err := c.AliasPage(t, root, self, alias); err != nil {
			return err
		}
		return c.ReleasePage(t, alias)
	}
	return nil
}

func fsOp(r *opsRig) error {
	c, err := r.cl.FS(r.comp)
	if err != nil {
		return err
	}
	var fd kernel.Word
	r.prep = func(t *kernel.Thread) (err error) {
		if fd, err = c.Open(t, "/bench.dat"); err != nil {
			return err
		}
		_, err = c.Write(t, fd, []byte("benchmark payload"))
		return err
	}
	r.iter = func(t *kernel.Thread) error {
		if _, err := c.Lseek(t, fd, 0); err != nil {
			return err
		}
		_, err := c.Read(t, fd, 8)
		return err
	}
	return nil
}

func lockOp(r *opsRig) error {
	c, err := r.cl.Lock(r.comp)
	if err != nil {
		return err
	}
	var id kernel.Word
	r.prep = func(t *kernel.Thread) (err error) {
		id, err = c.Alloc(t)
		return err
	}
	r.iter = func(t *kernel.Thread) error {
		if err := c.Take(t, id); err != nil {
			return err
		}
		return c.Release(t, id)
	}
	return nil
}

func eventOp(r *opsRig) error {
	c, err := r.cl.Event(r.comp)
	if err != nil {
		return err
	}
	var id kernel.Word
	r.prep = func(t *kernel.Thread) (err error) {
		id, err = c.Split(t, 0, 0)
		return err
	}
	r.iter = func(t *kernel.Thread) error {
		if _, err := c.Trigger(t, id); err != nil {
			return err
		}
		_, err := c.Wait(t, id)
		return err
	}
	if !r.kind.Recovers() {
		return nil
	}
	// Recovery probe: a non-creator triggers with a (stale) global ID,
	// exercising the full G0 path — storage resolve, EINVAL, creator
	// upcall (U0), replay — which is why the event manager is the most
	// expensive service to recover (Fig. 6(b) commentary).
	other, err := binding.NewClient(r.sys, r.kind, "bench-other")
	if err != nil {
		return err
	}
	oc, err := other.Event(r.comp)
	if err != nil {
		return err
	}
	r.probe = func(t *kernel.Thread) error {
		if _, err := oc.Trigger(t, id); err != nil {
			return err
		}
		_, err := c.Wait(t, id)
		return err
	}
	return nil
}

func timerOp(r *opsRig) error {
	c, err := r.cl.Timer(r.comp)
	if err != nil {
		return err
	}
	var id kernel.Word
	r.prep = func(t *kernel.Thread) (err error) {
		id, err = c.Alloc(t, 1)
		return err
	}
	r.iter = func(t *kernel.Thread) error {
		_, err := c.Wait(t, id)
		return err
	}
	return nil
}

// RunMicrobench runs n iterations of the service's §V-B micro-op through
// the given binding kind on a fresh system; the caller (a testing.B
// harness) does the timing.
func RunMicrobench(service string, kind binding.Kind, n int) error {
	rig, err := buildOps(service, kind)
	if err != nil {
		return err
	}
	return rig.run(func(t *kernel.Thread) error { return repeat(t, n, rig.iter) })
}

// RunRecoveryBench performs n fault-then-recover cycles of the service's
// micro-op through the given binding kind (one µ-reboot + descriptor
// recovery + redo per cycle); the caller does the timing.
func RunRecoveryBench(service string, kind binding.Kind, n int) error {
	rig, err := buildOps(service, kind)
	if err != nil {
		return err
	}
	return rig.run(func(t *kernel.Thread) error { return repeat(t, n, rig.faultThenProbe) })
}

// faultThenProbe fails the measured component and runs the probe, which
// µ-reboots it, recovers the descriptor and redoes the call.
func (r *opsRig) faultThenProbe(t *kernel.Thread) error {
	if err := r.sys.Kernel().FailComponent(r.comp); err != nil {
		return err
	}
	return r.probe(t)
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
	for _, svc := range serviceRows {
		row := Fig6aRow{Service: svc.name}
		for _, kind := range binding.Kinds() {
			mean, stdev, med, err := timeIters(svc.name, kind, iters)
			if err != nil {
				return nil, fmt.Errorf("fig6a %s/%v: %w", svc.name, kind, err)
			}
			switch kind {
			case binding.Base:
				row.BaseUS, row.BaseStdev, row.BaseMedianUS = mean, stdev, med
			case binding.C3:
				row.C3US, row.C3Stdev = mean, stdev
			case binding.SuperGlue:
				row.SGUS, row.SGStdev, row.SGMedianUS = mean, stdev, med
			}
		}
		row.C3OverheadUS = row.C3US - row.BaseUS
		row.SGOverheadUS = row.SGUS - row.BaseUS
		rows = append(rows, row)
	}
	return rows, nil
}

// sampleUS runs op once and appends its wall time in µs to samples.
func sampleUS(t *kernel.Thread, op func(t *kernel.Thread) error, samples *[]float64) error {
	t0 := time.Now()
	if err := op(t); err != nil {
		return err
	}
	*samples = append(*samples, float64(time.Since(t0).Nanoseconds())/1000.0)
	return nil
}

// timeIters runs the micro-op iters times on a fresh system and returns the
// per-iteration mean, stdev and median in microseconds.
func timeIters(service string, kind binding.Kind, iters int) (mean, stdev, med float64, err error) {
	rig, err := buildOps(service, kind)
	if err != nil {
		return 0, 0, 0, err
	}
	samples := make([]float64, 0, iters)
	err = rig.run(func(t *kernel.Thread) error {
		if err := repeat(t, 16, rig.iter); err != nil { // warm up
			return err
		}
		for i := 0; i < iters; i++ {
			if err := sampleUS(t, rig.iter, &samples); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
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
	for _, svc := range serviceRows {
		spec, err := svc.spec()
		if err != nil {
			return nil, err
		}
		row := Fig6bRow{Service: svc.name, Mechanisms: spec.Mechanisms()}
		for _, kind := range []binding.Kind{binding.C3, binding.SuperGlue} {
			mean, stdev, err := timeRecovery(svc.name, kind, trials)
			if err != nil {
				return nil, fmt.Errorf("fig6b %s/%v: %w", svc.name, kind, err)
			}
			if kind == binding.C3 {
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
func timeRecovery(service string, kind binding.Kind, trials int) (float64, float64, error) {
	rig, err := buildOps(service, kind)
	if err != nil {
		return 0, 0, err
	}
	k := rig.sys.Kernel()
	base := make([]float64, 0, 64)
	samples := make([]float64, 0, trials)
	err = rig.run(func(t *kernel.Thread) error {
		for i := 0; i < 64; i++ {
			if err := sampleUS(t, rig.probe, &base); err != nil {
				return err
			}
		}
		for i := 0; i < trials; i++ {
			if err := k.FailComponent(rig.comp); err != nil {
				return err
			}
			if err := sampleUS(t, rig.probe, &samples); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	baseMean, _ := meanStdev(base)
	mean, stdev := meanStdev(samples)
	return max(mean-baseMean, 0), stdev, nil
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
	for _, svc := range serviceRows {
		spec, err := svc.spec()
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
		c3Src, ok := c3.StubSource(svc.name)
		if !ok {
			return nil, fmt.Errorf("fig6c: no C³ stub source for %s", svc.name)
		}
		rows = append(rows, Fig6cRow{
			Service:      svc.name,
			IDLLOC:       CountLOC(svc.idl()),
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
