package experiments

import (
	"errors"
	"fmt"
	"io"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/lock"
)

// ablationDescs lists the descriptor populations of the ablation's rows.
var ablationDescs = []int{16, 64, 256}

// ablationFaults is the number of faults per row. Every fault must read
// the same counts: the machine is deterministic, so a disagreement is a
// fault of the rig, not noise.
const ablationFaults = 5

// Work is what one thread ran across one span of execution: the
// component invocations the machine completed and the recovery-walk
// steps of the lock client stub.
type Work struct {
	Invocations uint64
	WalkSteps   uint64
}

// minus returns the work done between the counts o and w.
func (w Work) minus(o Work) Work {
	return Work{w.Invocations - o.Invocations, w.WalkSteps - o.WalkSteps}
}

// AblationRow is one row of the eager-vs-on-demand recovery ablation: per
// fault, the work the high-priority first post-fault accessor and the
// low-priority owner of the descriptor population each ran.
type AblationRow struct {
	Mode        core.RecoveryMode
	Descriptors int
	// Hi is the high-priority task's work from its release to its
	// completion (one take and release of its own descriptor).
	Hi Work
	// Lo is the low-priority thread's work on its own descriptor after
	// the task completed.
	Lo Work
}

// RecoveryAblation counts the schedulability argument of §II-C / C³ (RTSS
// 2013): *on-demand* (T1) recovery rebuilds only the accessed descriptor,
// at the accessing thread's priority, so a high-priority task pays for
// its own descriptor whatever the population; *eager* recovery rebuilds
// every descriptor at fault time, so the whole population's rebuild lands
// on whichever thread touches the component first.
//
// Per fault, a low-priority thread that owns Descriptors lock descriptors
// fails the component and releases a high-priority task, which preempts
// it and is the first post-fault accessor; then the low-priority thread
// touches its own descriptor. The rows are counts, not times: the same
// on every run and every machine.
func RecoveryAblation() ([]AblationRow, error) {
	var rows []AblationRow
	for _, mode := range []core.RecoveryMode{core.OnDemand, core.Eager} {
		for _, n := range ablationDescs {
			row, err := ablationRow(mode, n)
			if err != nil {
				return nil, fmt.Errorf("ablation %v/%d: %w", mode, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func ablationRow(mode core.RecoveryMode, descs int) (AblationRow, error) {
	sys, err := core.NewSystem(mode)
	if err != nil {
		return AblationRow{}, err
	}
	comp, err := lock.Register(sys)
	if err != nil {
		return AblationRow{}, err
	}
	cl, err := sys.NewClient("ablation-app")
	if err != nil {
		return AblationRow{}, err
	}
	locks, err := lock.NewClient(cl, comp)
	if err != nil {
		return AblationRow{}, err
	}
	k := sys.Kernel()
	stub := locks.Stub()
	count := func() Work { return Work{k.InvocationCount(), stub.Metrics().WalkSteps} }
	use := func(t *kernel.Thread, id kernel.Word) error {
		if err := locks.Take(t, id); err != nil {
			return err
		}
		return locks.Release(t, id)
	}

	var hi, lo []Work
	var hiErr, loErr error
	var released Work
	done := false

	// High-priority task: parked until released, then takes and releases
	// its own descriptor.
	hiID, err := k.CreateThread(nil, "hi", 5, func(t *kernel.Thread) {
		hiErr = func() error {
			own, err := locks.Alloc(t)
			if err != nil {
				return err
			}
			for {
				if err := k.Block(t); err != nil {
					return err
				}
				if done {
					return nil
				}
				if err := use(t, own); err != nil {
					return err
				}
				hi = append(hi, count().minus(released))
			}
		}()
	})
	if err != nil {
		return AblationRow{}, err
	}

	// Low-priority client: owns the descriptor population; per fault, it
	// fails the component and releases the task, which preempts it.
	if _, err := k.CreateThread(nil, "lo", 20, func(t *kernel.Thread) {
		defer func() {
			done = true
			_ = k.Wakeup(t, hiID)
		}()
		loErr = func() error {
			ids := make([]kernel.Word, descs)
			for i := range ids {
				id, err := locks.Alloc(t)
				if err != nil {
					return err
				}
				ids[i] = id
			}
			for f := 0; f < ablationFaults; f++ {
				if err := k.FailComponent(comp); err != nil {
					return err
				}
				released = count()
				if err := k.Wakeup(t, hiID); err != nil {
					return err
				}
				w0 := count()
				if err := use(t, ids[0]); err != nil {
					return err
				}
				lo = append(lo, count().minus(w0))
			}
			return nil
		}()
	}); err != nil {
		return AblationRow{}, err
	}
	if err := k.Run(); err != nil {
		return AblationRow{}, err
	}
	if err := errors.Join(hiErr, loErr); err != nil {
		return AblationRow{}, err
	}
	if len(hi) != ablationFaults || len(lo) != ablationFaults {
		return AblationRow{}, fmt.Errorf("%d high-priority and %d low-priority accesses of %d faults", len(hi), len(lo), ablationFaults)
	}
	for f := 1; f < ablationFaults; f++ {
		if hi[f] != hi[0] || lo[f] != lo[0] {
			return AblationRow{}, fmt.Errorf("fault %d counted hi %+v lo %+v; fault 0 counted hi %+v lo %+v", f, hi[f], lo[f], hi[0], lo[0])
		}
	}
	return AblationRow{Mode: mode, Descriptors: descs, Hi: hi[0], Lo: lo[0]}, nil
}

// RenderAblation writes the ablation table.
func RenderAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation: who pays for recovery — work per fault, counted\n")
	fmt.Fprintf(w, "(on-demand: the high-priority task rebuilds only its own descriptor;\n")
	fmt.Fprintf(w, " eager: as first post-fault accessor it rebuilds the whole population)\n")
	fmt.Fprintf(w, "%-22s %24s %24s\n", "", "high-priority task", "low-priority thread")
	fmt.Fprintf(w, "%-10s %11s %12s %11s %12s %11s\n", "mode", "descriptors",
		"invocations", "walk steps", "invocations", "walk steps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11d %12d %11d %12d %11d\n", r.Mode, r.Descriptors,
			r.Hi.Invocations, r.Hi.WalkSteps, r.Lo.Invocations, r.Lo.WalkSteps)
	}
}
