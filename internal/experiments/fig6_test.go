package experiments

import (
	"testing"

	"superglue/internal/binding"
	"superglue/internal/kernel"
)

// TestMicroOpsAgreeAcrossKinds runs every Fig. 6 row's micro-op through
// each binding kind — prep, a few iterations, then fault-and-probe cycles
// where the kind recovers — and checks that the measured server receives
// the same number of invocations per iteration under each kind: a stub
// adds tracking around the calls, never a call of its own, so the three
// columns of Fig. 6(a) time the same server work.
func TestMicroOpsAgreeAcrossKinds(t *testing.T) {
	const iters = 8
	for _, svc := range serviceRows {
		perIter := make(map[binding.Kind]int)
		for _, kind := range binding.Kinds() {
			rig, err := buildOps(svc.name, kind)
			if err != nil {
				t.Fatalf("%s/%v: %v", svc.name, kind, err)
			}
			calls := 0
			rig.sys.Kernel().SetInvokeHook(func(_ *kernel.Thread, comp kernel.ComponentID, _ string, phase kernel.InvokePhase) {
				if comp == rig.comp && phase == kernel.PhaseEntry {
					calls++
				}
			})
			var measured int
			err = rig.run(func(th *kernel.Thread) error {
				before := calls
				if err := repeat(th, iters, rig.iter); err != nil {
					return err
				}
				measured = calls - before
				if !kind.Recovers() {
					return nil
				}
				if err := repeat(th, 2, rig.faultThenProbe); err != nil {
					return err
				}
				return rig.iter(th)
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", svc.name, kind, err)
			}
			if measured == 0 || measured%iters != 0 {
				t.Fatalf("%s/%v: %d invocations of the server over %d iterations", svc.name, kind, measured, iters)
			}
			perIter[kind] = measured / iters
		}
		for _, kind := range binding.Kinds() {
			if perIter[kind] != perIter[binding.Base] {
				t.Errorf("%s: %v makes %d server invocations per iteration, base makes %d",
					svc.name, kind, perIter[kind], perIter[binding.Base])
			}
		}
	}
}
