package experiments

import (
	"fmt"
	"io"
	"time"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/lock"
)

// TimingRow is one cell of the eager-vs-on-demand recovery ablation: the
// latency of the first post-fault operation as the number of other tracked
// descriptors grows.
type TimingRow struct {
	Mode        core.RecoveryMode
	Descriptors int
	FirstOpUS   float64
	Stdev       float64
	WalkSteps   uint64
}

// RecoveryTiming reproduces the timing argument of §II-C / C³ (RTSS 2013):
// *eager* recovery rebuilds every descriptor at fault time, so the first
// thread to touch the failed component pays for all of them — interference
// proportional to the component's descriptor population; *on-demand* (T1)
// recovery rebuilds only the accessed descriptor at the accessing thread's
// priority, so the first operation's latency stays flat.
//
// The experiment tracks descCounts lock descriptors, faults the component,
// and times the first post-fault operation on a single descriptor, trials
// times per configuration.
func RecoveryTiming(descCounts []int, trials int) ([]TimingRow, error) {
	if len(descCounts) == 0 {
		descCounts = []int{8, 64, 256}
	}
	if trials <= 0 {
		trials = 100
	}
	var rows []TimingRow
	for _, mode := range []core.RecoveryMode{core.OnDemand, core.Eager} {
		for _, n := range descCounts {
			row, err := timeFirstOp(mode, n, trials)
			if err != nil {
				return nil, fmt.Errorf("recovery timing %v/%d: %w", mode, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func timeFirstOp(mode core.RecoveryMode, descs, trials int) (TimingRow, error) {
	sys, err := core.NewSystem(mode)
	if err != nil {
		return TimingRow{}, err
	}
	comp, err := lock.Register(sys)
	if err != nil {
		return TimingRow{}, err
	}
	cl, err := sys.NewClient("timing-app")
	if err != nil {
		return TimingRow{}, err
	}
	locks, err := lock.NewClient(cl, comp)
	if err != nil {
		return TimingRow{}, err
	}
	k := sys.Kernel()
	samples := make([]float64, 0, trials)
	err = runBench(k, func(t *kernel.Thread) error {
		ids := make([]kernel.Word, descs)
		for i := range ids {
			id, err := locks.Alloc(t)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		hot := ids[0]
		for i := 0; i < trials; i++ {
			if err := k.FailComponent(comp); err != nil {
				return err
			}
			// The first post-fault access: under eager recovery it pays the
			// µ-reboot plus recovery of all descriptors; under on-demand it
			// pays the µ-reboot plus recovery of just this one.
			t0 := time.Now()
			if err := locks.Take(t, hot); err != nil {
				return err
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1000.0)
			if err := locks.Release(t, hot); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return TimingRow{}, err
	}
	mean, stdev := meanStdev(samples)
	return TimingRow{
		Mode:        mode,
		Descriptors: descs,
		FirstOpUS:   mean,
		Stdev:       stdev,
		WalkSteps:   locks.Stub().Metrics().WalkSteps,
	}, nil
}

// RenderRecoveryTiming writes the ablation table.
func RenderRecoveryTiming(w io.Writer, rows []TimingRow) {
	fmt.Fprintf(w, "Ablation: recovery timing — first post-fault operation latency (µs)\n")
	fmt.Fprintf(w, "(on-demand recovery stays flat as the descriptor population grows;\n")
	fmt.Fprintf(w, " eager recovery pays for every descriptor at fault time)\n")
	fmt.Fprintf(w, "%-10s %12s %18s %12s\n", "mode", "descriptors", "first op (µs ±σ)", "walk steps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %11.3f ±%5.3f %12d\n", r.Mode, r.Descriptors, r.FirstOpUS, r.Stdev, r.WalkSteps)
	}
}
