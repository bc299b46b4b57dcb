package swifi

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/workload"
)

// observedWorkload hands its trial machines to the observers from inside
// the machine: a reboot hook offers the running machine and holds it until
// an observer has queued its first read, so at least that read drains
// mid-run. The hook changes no machine state.
type observedWorkload struct {
	workload.Workload
	machines chan<- attach
}

// attach is one running machine on offer; the observer closes queued once
// its first read is in the machine's inbox.
type attach struct {
	k      *kernel.Kernel
	queued chan struct{}
}

func (w observedWorkload) Build(sys *core.System) (kernel.ComponentID, error) {
	id, err := w.Workload.Build(sys)
	if err != nil {
		return id, err
	}
	k := sys.Kernel()
	k.AddRebootHook(func(*kernel.Thread, kernel.ComponentID, uint64) {
		a := attach{k: k, queued: make(chan struct{})}
		select {
		case w.machines <- a:
			<-a.queued
		default: // every observer is busy: leave this reboot alone
		}
	})
	return id, nil
}

// observe reads one running machine through its inbox, a few times over: a
// read-only monitor. Reads queued after the machine's last scheduling
// decision run once Run returns. ReflectThreads is left out, since it
// records a trace event.
func observe(a attach, reads *atomic.Int64) {
	k := a.k
	var sink uint64
	read := func() {
		sink += k.InvocationCount() + k.UpcallCount() + uint64(k.Now())
		for _, id := range k.Components() {
			e, _ := k.Epoch(id)
			sink += e
		}
		for _, c := range k.CoreStats() {
			sink += c.Dispatches
		}
		if k.Hung() {
			sink++
		}
		sink += uint64(k.WatchdogStats().HangsCaught)
		reads.Add(1)
	}
	k.Post(read) // the machine is running, parked in the reboot hook
	close(a.queued)
	for i := 0; i < 16; i++ {
		k.Do(read)
	}
}

// TestTracedCampaignUnchangedByInboxObservers runs a traced storm campaign
// twice, once with read-only observers hammering the trial machines'
// inboxes from other goroutines. Inbox calls drain at scheduling decisions
// and change no machine state, so the result and the trace snapshot must be
// byte-identical. The reboot hook that hands machines to the observers runs
// in the plain campaign too, offering to nobody.
func TestTracedCampaignUnchangedByInboxObservers(t *testing.T) {
	const svc = "lock"
	run := func(observers int) ([]byte, int64) {
		cfg := Config{
			Service:  svc,
			Workload: Workloads()[svc],
			Iters:    3,
			Trials:   150,
			Seed:     2026,
			Profile:  Profiles()[svc],
			Trace:    true,
			Workers:  2,
			Shape:    ShapeStorm,
		}
		var reads atomic.Int64
		var wg sync.WaitGroup
		machines := make(chan attach)
		base := cfg.Workload
		cfg.Workload = func(iters int) workload.Workload {
			return observedWorkload{Workload: base(iters), machines: machines}
		}
		for i := 0; i < observers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := range machines {
					observe(a, &reads)
				}
			}()
		}
		res, err := Run(cfg)
		close(machines)
		wg.Wait()
		if err != nil {
			t.Fatalf("Run(observers=%d): %v", observers, err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal result: %v", err)
		}
		return out, reads.Load()
	}
	plain, _ := run(0)
	observed, reads := run(3)
	if string(plain) != string(observed) {
		t.Fatalf("campaign with inbox observers differs from the plain run\nplain:    %.300s\nobserved: %.300s", plain, observed)
	}
	if reads == 0 {
		t.Error("observers made no inbox reads; the test exercised nothing")
	}
	t.Logf("%d inbox reads across the observed campaign", reads)
}
