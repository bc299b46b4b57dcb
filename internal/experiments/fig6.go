package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

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
	display  string // the registry name, e.g. "FS" in TrackingFS/superglue
	spec     func() (*core.Spec, error)
	idl      func() string
	register func(*core.System) (kernel.ComponentID, error)
	// bind binds the service on the rig's client and sets its micro-op.
	bind func(r *opsRig) error
	// ownProbe marks a service whose recovering bindings set a recovery
	// probe other than the micro-op; its Probe rows time that probe
	// fault-free, as Fig. 6(b)'s base.
	ownProbe bool
}

// serviceRows lists the evaluation services in the paper's presentation
// order.
var serviceRows = []serviceRow{
	{"sched", "Sched", sched.Spec, sched.IDLSource, sched.Register, schedOp, false},
	{"mm", "MM", mm.Spec, mm.IDLSource, mm.Register, mmOp, false},
	{"ramfs", "FS", ramfs.Spec, ramfs.IDLSource, ramfs.Register, fsOp, false},
	{"lock", "Lock", lock.Spec, lock.IDLSource, lock.Register, lockOp, false},
	{"event", "Event", event.Spec, event.IDLSource, event.Register, eventOp, true},
	{"timer", "Timer", timer.Spec, timer.IDLSource, timer.Register, timerOp, false},
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
	if (rig.probe != nil) != (serviceRows[i].ownProbe && kind.Recovers()) {
		return nil, fmt.Errorf("experiments: %s/%v sets a probe %t, ownProbe %t", service, kind, rig.probe != nil, serviceRows[i].ownProbe)
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
// the given binding kind on a fresh system; the caller does the timing.
func RunMicrobench(service string, kind binding.Kind, n int) error {
	return runOps(service, kind, n, nil, (*opsRig).iterOp)
}

// runOps builds the service's rig under kind and runs its prep, then
// start (if non-nil; the registry passes b.ResetTimer) and n repetitions
// of op.
func runOps(service string, kind binding.Kind, n int, start func(), op func(*opsRig, *kernel.Thread) error) error {
	rig, err := buildOps(service, kind)
	if err != nil {
		return err
	}
	return rig.run(func(t *kernel.Thread) error {
		if start != nil {
			start()
		}
		return repeat(t, n, func(t *kernel.Thread) error { return op(rig, t) })
	})
}

// iterOp runs the micro-op once, and probeOp the recovery probe.
func (r *opsRig) iterOp(t *kernel.Thread) error  { return r.iter(t) }
func (r *opsRig) probeOp(t *kernel.Thread) error { return r.probe(t) }

// faultThenProbe fails the measured component and runs the probe, which
// µ-reboots it, recovers the descriptor and redoes the call.
func (r *opsRig) faultThenProbe(t *kernel.Thread) error {
	if err := r.sys.Kernel().FailComponent(r.comp); err != nil {
		return err
	}
	return r.probe(t)
}

// fig6aNames names the rows one service's Fig. 6(a) row is computed
// from: its Tracking row under base, C³ and SuperGlue.
func fig6aNames(svc serviceRow) []string {
	return []string{rowName("Tracking", svc, binding.Base), rowName("Tracking", svc, binding.C3),
		rowName("Tracking", svc, binding.SuperGlue)}
}

// fig6bNames names the rows one service's Fig. 6(b) row is computed from:
// under C³ and then SuperGlue, the Recovery row and the fault-free probe
// it is measured against, which is the Probe row where the service has
// its own probe and else the Tracking row (the probe is the micro-op).
func fig6bNames(svc serviceRow) []string {
	base := "Tracking"
	if svc.ownProbe {
		base = "Probe"
	}
	return []string{rowName("Recovery", svc, binding.C3), rowName(base, svc, binding.C3),
		rowName("Recovery", svc, binding.SuperGlue), rowName(base, svc, binding.SuperGlue)}
}

// Fig6Benchmarks returns the registry rows Fig6a (with a) and Fig6b (with
// b) are computed from, in registry order.
func Fig6Benchmarks(a, b bool) []Bench {
	need := make(map[string]bool)
	for _, svc := range serviceRows {
		for _, name := range fig6aNames(svc) {
			need[name] = need[name] || a
		}
		for _, name := range fig6bNames(svc) {
			need[name] = need[name] || b
		}
	}
	return slices.DeleteFunc(Benchmarks(), func(e Bench) bool { return !need[e.Name] })
}

// findResults returns the named results, in the order named.
func findResults(results []BenchResult, names []string) ([]BenchResult, error) {
	out := make([]BenchResult, len(names))
	for i, name := range names {
		j := slices.IndexFunc(results, func(r BenchResult) bool { return r.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("experiments: no result for %s", name)
		}
		out[i] = results[j]
	}
	return out, nil
}

// overheadUS is r's median less base's, in µs. It is not clamped: below
// zero it says r was the faster of the two.
func overheadUS(r, base BenchResult) float64 { return (r.MedianNsPerOp - base.MedianNsPerOp) / 1000 }

// Fig6aRow is one service's infrastructure-overhead measurement: its
// micro-op's Tracking rows under each binding kind, and the stubs'
// overheads over base.
type Fig6aRow struct {
	Service                    string
	Base, C3, SG               BenchResult
	C3OverheadUS, SGOverheadUS float64
}

// Fig6a computes the descriptor-tracking infrastructure overhead per
// service from results (RunBenchmarks over Fig6Benchmarks): the §V-B
// micro-op iteration cost through raw invocations, C³ stubs and
// SuperGlue stubs.
func Fig6a(results []BenchResult) ([]Fig6aRow, error) {
	var rows []Fig6aRow
	for _, svc := range serviceRows {
		r, err := findResults(results, fig6aNames(svc))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6aRow{Service: svc.name, Base: r[0], C3: r[1], SG: r[2],
			C3OverheadUS: overheadUS(r[1], r[0]), SGOverheadUS: overheadUS(r[2], r[0])})
	}
	return rows, nil
}

// Fig6bRow is one service's per-descriptor recovery cost: its Recovery
// rows (fault, µ-reboot, recovery walk and redo per iteration) under each
// recovering kind, and their overheads over the fault-free probe.
type Fig6bRow struct {
	Service                    string
	C3, SG                     BenchResult
	C3OverheadUS, SGOverheadUS float64
	Mechanisms                 []core.Mechanism
}

// Fig6b computes the per-descriptor recovery overhead from results: the
// extra time an operation takes when the fault before it must be
// recovered.
func Fig6b(results []BenchResult) ([]Fig6bRow, error) {
	var rows []Fig6bRow
	for _, svc := range serviceRows {
		spec, err := svc.spec()
		if err != nil {
			return nil, err
		}
		r, err := findResults(results, fig6bNames(svc))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6bRow{Service: svc.name, C3: r[0], SG: r[2],
			C3OverheadUS: overheadUS(r[0], r[1]), SGOverheadUS: overheadUS(r[2], r[3]),
			Mechanisms: spec.Mechanisms()})
	}
	return rows, nil
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
			// A sum: the same in any order.
			gen += CountLOC(content) //sgvet:ignore determinism
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
		// A sum (and files is sorted below): the same in any order.
		loc += CountLOC(src) //sgvet:ignore determinism
		files = append(files, name)
	}
	sort.Strings(files)
	return loc, files
}

// usRange renders a row's median (min–max) in µs.
func usRange(r BenchResult) string {
	return fmt.Sprintf("%.3f (%.3f–%.3f)", r.MedianNsPerOp/1000, r.MinNsPerOp/1000, r.MaxNsPerOp/1000)
}

// RenderFig6a writes the Fig. 6(a) table.
func RenderFig6a(w io.Writer, rows []Fig6aRow) {
	n := 0
	if len(rows) > 0 {
		n = rows[0].Base.Samples
	}
	fmt.Fprintf(w, "Fig 6(a): infrastructure overhead with descriptor state tracking (µs/iteration, median (min–max) of %d interleaved rounds)\n", n)
	fmt.Fprintf(w, "%-8s %-25s %-25s %-25s %8s %8s  %s\n", "service", "base", "C3", "SuperGlue", "C3 ovh", "SG ovh", "allocs/op base/C3/SG")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-25s %-25s %-25s %8.3f %8.3f  %d/%d/%d\n", r.Service,
			usRange(r.Base), usRange(r.C3), usRange(r.SG), r.C3OverheadUS, r.SGOverheadUS,
			r.Base.AllocsPerOp, r.C3.AllocsPerOp, r.SG.AllocsPerOp)
	}
}

// RenderFig6b writes the Fig. 6(b) table.
func RenderFig6b(w io.Writer, rows []Fig6bRow) {
	n := 0
	if len(rows) > 0 {
		n = rows[0].SG.Samples
	}
	fmt.Fprintf(w, "Fig 6(b): per-descriptor recovery overhead (µs; fault+recover+redo cycle, median (min–max) of %d interleaved rounds, less the fault-free op)\n", n)
	fmt.Fprintf(w, "%-8s %8s %-25s %8s %-25s %12s  %s\n", "service", "C3 ovh", "C3 cycle", "SG ovh", "SG cycle", "cycles/round", "mechanisms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8.3f %-25s %8.3f %-25s %12d  %v\n", r.Service,
			r.C3OverheadUS, usRange(r.C3), r.SGOverheadUS, usRange(r.SG), r.SG.Iterations/r.SG.Samples, r.Mechanisms)
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
