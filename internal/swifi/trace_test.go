package swifi

import (
	"runtime"
	"testing"

	"superglue/internal/obs"
	"superglue/internal/services/lock"
)

// TestTracedCampaignBreakdown: a traced campaign yields a per-mechanism
// recovery breakdown with real recovery activity and populated latency
// histograms.
func TestTracedCampaignBreakdown(t *testing.T) {
	res, err := Run(Config{
		Service: "lock", Workload: lock.NewWorkload,
		Iters: 3, Trials: 40, Seed: 7, Profile: Profiles()["lock"],
		Trace: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Recovery == nil {
		t.Fatal("traced campaign produced no Recovery snapshot")
	}
	snap := res.Recovery
	if len(snap.Mechanisms) != obs.NumMechanisms-1 {
		t.Fatalf("breakdown has %d mechanisms; want all %d", len(snap.Mechanisms), obs.NumMechanisms-1)
	}
	byMech := make(map[string]obs.MechanismSnapshot)
	for _, m := range snap.Mechanisms {
		byMech[m.Mechanism] = m
	}
	if res.Recovered > 0 {
		r0 := byMech["R0"]
		if r0.Count == 0 {
			t.Errorf("%d trials recovered but R0 count is 0", res.Recovered)
		}
		var histTotal uint64
		for _, n := range r0.Hist {
			histTotal += n
		}
		if histTotal != r0.Count {
			t.Errorf("R0 histogram sums to %d; want count %d", histTotal, r0.Count)
		}
		if byMech["T1"].Count == 0 {
			t.Error("on-demand campaign recovered faults but T1 count is 0")
		}
	}
	if snap.Kinds["FaultDetected"] == 0 {
		t.Error("campaign with activated faults recorded no fault_detected events")
	}
}

// TestTracedCampaignClassifiesIdentically: tracing must not perturb the
// simulation — same seed, same outcome counts, traced or not.
func TestTracedCampaignClassifiesIdentically(t *testing.T) {
	run := func(trace bool) *Result {
		res, err := Run(Config{
			Service: "lock", Workload: lock.NewWorkload,
			Iters: 2, Trials: 15, Seed: 99, Profile: Profiles()["lock"],
			Trace: trace,
		})
		if err != nil {
			t.Fatalf("Run(trace=%v): %v", trace, err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.Recovered != traced.Recovered || plain.Segfault != traced.Segfault ||
		plain.Propagated != traced.Propagated || plain.Other != traced.Other ||
		plain.Undetected != traced.Undetected || plain.Degraded != traced.Degraded {
		t.Fatalf("tracing changed campaign outcomes: %+v vs %+v", plain, traced)
	}
	for i := range plain.Trials {
		if plain.Trials[i].Outcome != traced.Trials[i].Outcome {
			t.Fatalf("trial %d: outcome %v (plain) vs %v (traced)",
				i, plain.Trials[i].Outcome, traced.Trials[i].Outcome)
		}
	}
}

// TestTracedCampaignAllocationGuard bounds what tracing adds to a
// campaign's allocation per trial. A trial records a few dozen events,
// so its recorder and its commit into the rolling stream must cost in
// proportion to those, not to the ring's capacity. A one-worker campaign
// runs at most two trials ahead of the merger, so it grows at most two
// trial recorders and resets them; the stream is a ring of the trace
// capacity that the Result takes over. What is left is the stream's
// storage (grown by doubling to about 2,000 events here), the two
// recorders and the per-trial fold: 6.3–6.4 KB per trial at GOMAXPROCS
// 1 to 8, whatever the Go scheduler does. The bound leaves about 0.6 KB
// for toolchain and map-growth variation.
func TestTracedCampaignAllocationGuard(t *testing.T) {
	const trials = 60
	perTrial := func(trace bool) float64 {
		cfg := Config{
			Service: "lock", Workload: lock.NewWorkload,
			Iters: 5, Trials: trials, Seed: 2026, Profile: Profiles()["lock"],
			Trace: trace, Workers: 1, DiscardTrials: true,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run(trace=%v): %v", trace, err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / trials
	}
	untraced, traced := perTrial(false), perTrial(true)
	t.Logf("tracing adds %.0f B/trial (traced %.0f, untraced %.0f)", traced-untraced, traced, untraced)
	const bound = 7 << 10
	if extra := traced - untraced; extra >= bound {
		t.Fatalf("tracing adds %.0f B/trial (traced %.0f, untraced %.0f), want < %d",
			extra, traced, untraced, bound)
	}
}

// BenchmarkTracedTrialFold times what tracing adds to one SWIFI trial
// outside the simulation: resetting a reused recorder, recording a real
// storm trial's events into it, and committing it into the campaign
// state (aggregate fold and stream append).
func BenchmarkTracedTrialFold(b *testing.B) {
	cfg := Config{Service: "lock", Workload: Workloads()["lock"], Iters: 5, Trials: 1,
		Seed: 1, Profile: Profiles()["lock"], Trace: true, Shape: ShapeStorm, Replicas: 3}
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	events := res.Recovery.Events
	names := map[int32]string{}
	for _, c := range res.Recovery.Components {
		names[c.ID] = c.Name
	}
	tr := res.Trials[0]
	st := newCampaignState(cfg, obs.DefaultCapacity, 0, b.N)
	rec := obs.NewRecorder(obs.DefaultCapacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		for id, name := range names {
			rec.SetComponentName(id, name)
		}
		for _, ev := range events {
			rec.Record(ev)
		}
		st.commit(tr, rec)
	}
	b.ReportMetric(float64(len(events)), "events/trial")
}
