package core_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/lock"
)

// TestMetricsSnapshotDuringCampaign reads the stub counters and the
// kernel's counters and epochs from monitor goroutines, through the kernel
// inbox, while a simulated thread runs a fault/recover workload — the
// monitoring pattern a C'MON-style observer would use. The thread yields
// every few iterations so the inbox drains mid-run. Run under -race, the
// interleavings are the main assertion; each monitor also checks that what
// it reads never goes backwards, and the counter checks at the end are
// sanity.
func TestMetricsSnapshotDuringCampaign(t *testing.T) {
	const iters = 1500

	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	lockComp, err := lock.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	app, err := sys.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	locks, err := lock.NewClient(app, lockComp)
	if err != nil {
		t.Fatal(err)
	}
	kern := sys.Kernel()

	if _, err := kern.CreateThread(nil, "driver", 10, func(th *kernel.Thread) {
		id, err := locks.Alloc(th)
		if err != nil {
			t.Errorf("Alloc: %v", err)
			return
		}
		for i := 0; i < iters; i++ {
			if i%10 == 0 {
				if err := kern.Yield(th); err != nil {
					t.Errorf("iter %d: Yield: %v", i, err)
					return
				}
			}
			if i%100 == 50 {
				if err := kern.FailComponent(lockComp); err != nil {
					t.Errorf("FailComponent: %v", err)
					return
				}
			}
			if err := locks.Take(th, id); err != nil {
				t.Errorf("iter %d: Take: %v", i, err)
				return
			}
			if err := locks.Release(th, id); err != nil {
				t.Errorf("iter %d: Release: %v", i, err)
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			var last core.StubMetrics
			var lastInv, lastEpoch uint64
			for !stop.Load() {
				var m core.StubMetrics
				var inv, epoch uint64
				kern.Do(func() {
					m = locks.Stub().Metrics()
					inv = kern.InvocationCount()
					epoch, _ = kern.Epoch(lockComp)
					if kern.Faulty(lockComp) {
						sink++
					}
				})
				if m.Invocations < last.Invocations || m.TrackOps < last.TrackOps ||
					m.Redos < last.Redos || m.Recoveries < last.Recoveries ||
					inv < lastInv || epoch < lastEpoch {
					t.Errorf("monitor went backwards: %+v inv %d epoch %d after %+v inv %d epoch %d",
						m, inv, epoch, last, lastInv, lastEpoch)
					return
				}
				last, lastInv, lastEpoch = m, inv, epoch
				sink += m.Invocations + inv + epoch
			}
			_ = sink
		}()
	}

	err = kern.Run()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	m := locks.Stub().Metrics()
	// Alloc + iters×(Take+Release), plus the redos from the injected faults.
	if want := uint64(1 + 2*iters); m.Invocations < want {
		t.Errorf("Invocations = %d, want >= %d", m.Invocations, want)
	}
	if m.Redos == 0 || m.Recoveries == 0 {
		t.Errorf("Redos = %d, Recoveries = %d; want both > 0 after injected faults", m.Redos, m.Recoveries)
	}
}
