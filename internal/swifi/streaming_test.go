package swifi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/obs"
)

// This file pins the fleet-scale contract of the streaming campaign
// engine: the rolling merge is byte-identical to the batch engine it
// replaced, an interrupted-then-resumed campaign is byte-identical to
// an uninterrupted one, and a sharded-then-merged campaign is
// byte-identical to a single-process one — for any worker count,
// checkpoint interval, shard count, and campaign shape.

// batchReference reimplements the pre-streaming batch engine verbatim:
// run every trial into a fixed slot, then fold the slots in index order
// with one final trim. The streaming engine must reproduce its output
// exactly; keeping the old algorithm alive here (instead of trusting a
// recorded fixture) keeps the equivalence checkable against every
// future workload and shape.
func batchReference(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.OnDemand
	}
	capacity := cfg.TraceCapacity
	if capacity <= 0 {
		capacity = obs.DefaultCapacity
	}
	opportunities, err := Opportunities(cfg)
	if err != nil {
		t.Fatalf("batch reference dry run: %v", err)
	}
	type slot struct {
		tr   TrialResult
		snap obs.Snapshot
	}
	outs := make([]slot, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := rand.New(rand.NewSource(TrialSeed(cfg.Seed, trial)))
		var rec *obs.Recorder
		if cfg.Trace {
			rec = obs.NewRecorder(capacity)
		}
		run := runTrial
		if cfg.Shape != ShapeLegacy {
			run = runShapedTrial
		}
		tr, err := run(cfg, opportunities, rng, rec)
		if err != nil {
			t.Fatalf("batch reference trial %d: %v", trial, err)
		}
		outs[trial] = slot{tr: tr, snap: rec.Snapshot()}
	}
	res := &Result{Service: cfg.Service}
	if cfg.Cores > 1 {
		res.Cores = cfg.Cores
	}
	if cfg.Shape != ShapeLegacy {
		res.Kinds = make(map[string]*KindStats)
	}
	var merged obs.Snapshot
	for trial := range outs {
		tr := outs[trial].tr
		res.Injected++
		res.Trials = append(res.Trials, tr)
		foldKinds(res.Kinds, tr)
		switch tr.Outcome {
		case OutcomeUndetected:
			res.Undetected++
		case OutcomeRecovered:
			res.Recovered++
		case OutcomeSegfault:
			res.Segfault++
		case OutcomePropagated:
			res.Propagated++
		case OutcomeOther:
			res.Other++
		case OutcomeDegraded:
			res.Degraded++
		}
		if cfg.Trace {
			merged.Merge(outs[trial].snap)
		}
	}
	if cfg.Trace {
		merged.Trim(capacity)
		res.Recovery = &merged
	}
	return res
}

// streamCases are the campaign shapes the streaming equivalence and
// durability tests sweep: the legacy paper campaign, every shaped
// pattern, and a replicated-storage campaign whose storage fault kinds
// exercise the snapshot's storage aggregates. The last two repeat a
// legacy and a shaped campaign with a small trace capacity, so the
// rolling stream's ring wraps many times; TestSmallCapacityCasesCrossTheTrim
// pins what they cover.
func streamCases() []Config {
	return []Config{
		{Service: "lock", Workload: Workloads()["lock"], Iters: 3, Trials: 37,
			Seed: 2026, Profile: Profiles()["lock"], Trace: true},
		{Service: "sched", Workload: Workloads()["sched"], Iters: 3, Trials: 30,
			Seed: 11, Profile: Profiles()["sched"], Trace: true, Shape: ShapeCorrelated},
		{Service: "lock", Workload: Workloads()["lock"], Iters: 3, Trials: 30,
			Seed: 7, Profile: Profiles()["lock"], Trace: true, Shape: ShapeStorm, StormFaults: 3},
		{Service: "ramfs", Workload: Workloads()["ramfs"], Iters: 3, Trials: 30,
			Seed: 5, Profile: Profiles()["ramfs"], Trace: true, Shape: ShapeDuringRecovery,
			Kinds:    []fault.Kind{fault.KindStorageCrash, fault.KindStorageCorruption, fault.KindRegisterFlip},
			Replicas: 3},
		{Service: "lock", Workload: Workloads()["lock"], Iters: 3, Trials: 37,
			Seed: 2026, Profile: Profiles()["lock"], Trace: true, TraceCapacity: 16},
		{Service: "sched", Workload: Workloads()["sched"], Iters: 3, Trials: 30,
			Seed: 11, Profile: Profiles()["sched"], Trace: true, Shape: ShapeCorrelated,
			TraceCapacity: 40},
	}
}

// haltAfter is where TestHaltResumeByteIdentical halts its campaigns
// (twice, so at commits haltAfter and 2*haltAfter); haltEvery is its
// checkpoint interval.
const (
	haltAfter = 11
	haltEvery = 3
)

// caseName labels one sweep case for subtests.
func caseName(cfg Config) string {
	name := fmt.Sprintf("%s-%s", cfg.Service, cfg.Shape)
	if cfg.TraceCapacity > 0 {
		name += fmt.Sprintf("-cap%d", cfg.TraceCapacity)
	}
	return name
}

// TestSmallCapacityCasesCrossTheTrim pins what the small-capacity
// stream cases exercise, by folding their trials through commit exactly
// as Run does: the ring wraps at least five times (at least six
// capacities of events flow through it); some trial's own snapshot fills the capacity, so Seq must stay
// continuous when one trial's events overwrite the whole ring; and at
// TestHaltResumeByteIdentical's first halt the ring has wrapped part of
// the way round, so the halt checkpoint is written from a ring whose
// oldest event is not at its start. At every observation point the
// stream holds exactly the last min(appended, capacity) events.
func TestSmallCapacityCasesCrossTheTrim(t *testing.T) {
	fullTrial, slackHalt := false, false
	for _, cfg := range streamCases() {
		capacity := cfg.TraceCapacity
		if capacity == 0 {
			continue
		}
		cfg.Mode = core.OnDemand
		opportunities, err := Opportunities(cfg)
		if err != nil {
			t.Fatalf("%s: dry run: %v", caseName(cfg), err)
		}
		run := runTrial
		if cfg.Shape != ShapeLegacy {
			run = runShapedTrial
		}
		st := newCampaignState(cfg, capacity, 0, cfg.Trials)
		// head models the ring's oldest slot: it moves with every event
		// appended to a full ring, and an observation point rotates the
		// ring back to 0.
		appended, head := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			rec := obs.NewRecorder(capacity)
			tr, err := run(cfg, opportunities, rand.New(rand.NewSource(TrialSeed(cfg.Seed, trial))), rec)
			if err != nil {
				t.Fatalf("%s: trial %d: %v", caseName(cfg), trial, err)
			}
			snap := rec.Snapshot()
			fullTrial = fullTrial || len(snap.Events) >= capacity
			for range snap.Events {
				if appended >= capacity {
					head = (head + 1) % capacity
				}
				appended++
			}
			st.commit(tr, rec)
			if st.Next%haltEvery != 0 && st.Next != haltAfter && st.Next != cfg.Trials {
				continue
			}
			slackHalt = slackHalt || (st.Next == haltAfter && head != 0)
			st.trim()
			head = 0
			events := st.Snapshot.Events
			if len(events) != min(appended, capacity) || (len(events) > 0 && events[len(events)-1].Seq != uint64(appended)) {
				t.Fatalf("%s: after trial %d the stream holds %d events, want the last %d of %d",
					caseName(cfg), trial, len(events), min(appended, capacity), appended)
			}
		}
		// Every capacity of events appended after the first overwrites
		// the whole ring once.
		if wraps := appended/capacity - 1; wraps < 5 {
			t.Errorf("%s: %d events wrapped the %d-event ring %d times, want at least 5",
				caseName(cfg), appended, capacity, wraps)
		}
	}
	if !fullTrial {
		t.Errorf("no small-capacity trial fills its own ring")
	}
	if !slackHalt {
		t.Errorf("no small-capacity case halts with its ring wrapped part of the way round")
	}
}

// resultJSON renders a Result to canonical JSON for byte comparison.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestStreamingMatchesBatch is the tentpole equivalence: for every
// sweep case, the streaming engine's output — counters, per-kind
// columns, per-trial records, and the merged trace snapshot — is
// byte-identical to the batch reference for worker counts 1, 3, and 8,
// with and without checkpointing at aggressive intervals.
func TestStreamingMatchesBatch(t *testing.T) {
	for _, base := range streamCases() {
		base := base
		t.Run(caseName(base), func(t *testing.T) {
			want := resultJSON(t, batchReference(t, base))
			for _, workers := range []int{1, 3, 8} {
				for _, every := range []int{0, 1, 5} {
					cfg := base
					cfg.Workers = workers
					if every > 0 {
						cfg.Checkpoint = filepath.Join(t.TempDir(), "ckpt")
						cfg.CheckpointEvery = every
					}
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("Run(workers=%d every=%d): %v", workers, every, err)
					}
					if got := resultJSON(t, res); got != want {
						t.Fatalf("workers=%d every=%d: streaming result differs from batch reference", workers, every)
					}
				}
			}
		})
	}
}

// TestHaltResumeByteIdentical pins the checkpoint/resume contract: a
// campaign halted mid-flight (twice) and resumed to completion produces
// exactly the uninterrupted campaign's Table II counters and snapshot.
// Per-trial records are compared over the resumed tail only — trial
// records are deliberately not checkpointed.
func TestHaltResumeByteIdentical(t *testing.T) {
	for _, base := range streamCases() {
		base := base
		t.Run(caseName(base), func(t *testing.T) {
			ref := base
			ref.Workers = 4
			want, err := Run(ref)
			if err != nil {
				t.Fatalf("uninterrupted Run: %v", err)
			}

			cfg := base
			cfg.Workers = 4
			cfg.Checkpoint = filepath.Join(t.TempDir(), "ckpt")
			cfg.CheckpointEvery = haltEvery
			cfg.HaltAfter = haltAfter
			if _, err := Run(cfg); !errors.Is(err, ErrHalted) {
				t.Fatalf("first halted Run: err = %v; want ErrHalted", err)
			}
			cfg.Resume = true
			if _, err := Run(cfg); !errors.Is(err, ErrHalted) {
				t.Fatalf("second halted Run: err = %v; want ErrHalted", err)
			}
			cfg.HaltAfter = 0
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("resumed Run: %v", err)
			}

			if res.Injected != want.Injected || res.Recovered != want.Recovered ||
				res.Segfault != want.Segfault || res.Propagated != want.Propagated ||
				res.Other != want.Other || res.Degraded != want.Degraded ||
				res.Undetected != want.Undetected {
				t.Fatalf("resumed counters differ:\nwant %+v\ngot  %+v", want, res)
			}
			if !reflect.DeepEqual(res.Kinds, want.Kinds) {
				t.Fatalf("resumed per-kind columns differ")
			}
			a, _ := json.Marshal(want.Recovery)
			b, _ := json.Marshal(res.Recovery)
			if string(a) != string(b) {
				t.Fatalf("resumed snapshot JSON differs from uninterrupted")
			}
			if want := want.Trials[len(want.Trials)-len(res.Trials):]; !reflect.DeepEqual(res.Trials, want) {
				t.Fatalf("resumed tail trial records differ from uninterrupted")
			}
		})
	}
}

// TestShardMergeByteIdentical pins the sharding contract: splitting a
// campaign across k processes and folding the shard states with
// MergeStates reproduces the single-process campaign state —
// byte-identical persisted form, counters, and snapshot — for k = 2
// and a k that does not divide the trial count.
func TestShardMergeByteIdentical(t *testing.T) {
	for _, base := range streamCases() {
		base := base
		t.Run(caseName(base), func(t *testing.T) {
			dir := t.TempDir()
			single := base
			single.Workers = 4
			single.Checkpoint = filepath.Join(dir, "single")
			if _, err := Run(single); err != nil {
				t.Fatalf("single-process Run: %v", err)
			}
			want, err := LoadCampaignState(single.Checkpoint)
			if err != nil {
				t.Fatalf("load single-process state: %v", err)
			}
			wantJSON, _ := json.Marshal(want)

			for _, k := range []int{2, 3} {
				states := make([]*CampaignState, 0, k)
				for i := 0; i < k; i++ {
					cfg := base
					cfg.Workers = 2
					cfg.Shard = i
					cfg.ShardCount = k
					cfg.ShardOut = filepath.Join(dir, fmt.Sprintf("shard%dof%d", i, k))
					if _, err := Run(cfg); err != nil {
						t.Fatalf("shard %d/%d Run: %v", i, k, err)
					}
					st, err := LoadCampaignState(cfg.ShardOut)
					if err != nil {
						t.Fatalf("load shard %d/%d: %v", i, k, err)
					}
					states = append(states, st)
				}
				// Merge in scrambled order: MergeStates sorts by range.
				for i, j := 0, len(states)-1; i < j; i, j = i+1, j-1 {
					states[i], states[j] = states[j], states[i]
				}
				merged, err := MergeStates(states)
				if err != nil {
					t.Fatalf("MergeStates(k=%d): %v", k, err)
				}
				mergedJSON, _ := json.Marshal(merged)
				if string(mergedJSON) != string(wantJSON) {
					t.Fatalf("k=%d: merged shard state differs from single-process state", k)
				}
			}
		})
	}
}

// TestCampaignStatePersistRoundTrip pins the durable form: a persisted
// state loads back deeply equal (the enum JSON round trip included),
// and any single-bit corruption of the file is detected at load.
func TestCampaignStatePersistRoundTrip(t *testing.T) {
	cfg := streamCases()[3] // replicated shaped campaign: richest snapshot
	cfg.Workers = 4
	cfg.Checkpoint = filepath.Join(t.TempDir(), "ckpt")
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st, err := LoadCampaignState(cfg.Checkpoint)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	reJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal loaded state: %v", err)
	}
	st2 := &CampaignState{}
	if err := json.Unmarshal(reJSON, st2); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("state does not survive a second JSON round trip")
	}

	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	for _, bit := range []int{0, len(data) / 2, len(data) - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[bit] ^= 0x40
		path := filepath.Join(t.TempDir(), "corrupt")
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatalf("write corrupt: %v", err)
		}
		if _, err := LoadCampaignState(path); err == nil {
			t.Fatalf("corruption at byte %d not detected", bit)
		}
	}
}

// TestResumeRefusesMismatchedConfig pins the config-hash discipline: a
// checkpoint written under one configuration refuses to resume under a
// changed one, while orchestration-only changes (worker count,
// checkpoint cadence) resume fine.
func TestResumeRefusesMismatchedConfig(t *testing.T) {
	base := streamCases()[0]
	base.Workers = 2
	base.Checkpoint = filepath.Join(t.TempDir(), "ckpt")
	base.CheckpointEvery = 5
	base.HaltAfter = 9
	if _, err := Run(base); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted Run: err = %v; want ErrHalted", err)
	}

	bad := base
	bad.Resume = true
	bad.HaltAfter = 0
	bad.Seed++
	if _, err := Run(bad); err == nil {
		t.Fatalf("resume with a different seed must be refused")
	}

	ok := base
	ok.Resume = true
	ok.HaltAfter = 0
	ok.Workers = 7
	ok.CheckpointEvery = 2
	if _, err := Run(ok); err != nil {
		t.Fatalf("resume with orchestration-only changes: %v", err)
	}
}

// TestConfigHashSensitivity enumerates the hash contract directly:
// every outcome-relevant knob moves the hash, no orchestration knob
// does, and kind-pool order is significant (trials draw kinds by
// index).
func TestConfigHashSensitivity(t *testing.T) {
	base := Config{Service: "lock", Iters: 3, Trials: 100, Seed: 2026,
		Shape: ShapeCorrelated, Kinds: []fault.Kind{fault.KindHang, fault.KindMessageLoss}}
	h := base.Hash()

	relevant := map[string]Config{}
	c := base
	c.Seed++
	relevant["seed"] = c
	c = base
	c.Trials++
	relevant["trials"] = c
	c = base
	c.Iters++
	relevant["iters"] = c
	c = base
	c.Service = "sched"
	relevant["service"] = c
	c = base
	c.Shape = ShapeStorm
	relevant["shape"] = c
	c = base
	c.Kinds = []fault.Kind{fault.KindMessageLoss, fault.KindHang}
	relevant["kind order"] = c
	c = base
	c.Watchdog = true
	relevant["watchdog"] = c
	c = base
	c.Replicas = 3
	relevant["replicas"] = c
	c = base
	c.Cores = 2
	relevant["cores"] = c
	c = base
	c.Policy = "one-for-one"
	relevant["policy"] = c
	c = base
	c.FaultActions = map[string]string{"hang": "degrade"}
	relevant["fault actions"] = c
	for name, cfg := range relevant {
		if cfg.Hash() == h {
			t.Errorf("changing %s does not change the config hash", name)
		}
	}

	orchestration := map[string]Config{}
	c = base
	c.Workers = 9
	orchestration["workers"] = c
	c = base
	c.Checkpoint = "elsewhere"
	c.CheckpointEvery = 2
	orchestration["checkpointing"] = c
	c = base
	c.Resume = true
	orchestration["resume"] = c
	c = base
	c.HaltAfter = 5
	orchestration["halt"] = c
	c = base
	c.Shard, c.ShardCount, c.ShardOut = 1, 4, "out"
	orchestration["sharding"] = c
	c = base
	c.DiscardTrials = true
	orchestration["discard trials"] = c
	for name, cfg := range orchestration {
		if cfg.Hash() != h {
			t.Errorf("orchestration field %s must not change the config hash", name)
		}
	}
}

// TestShardRangeTiles pins shardRange's partition law: for any (trials,
// count) the ranges are contiguous, in order, differ in size by at most
// one, and concatenate exactly to [0, trials).
func TestShardRangeTiles(t *testing.T) {
	for _, trials := range []int{1, 2, 7, 100, 501} {
		for _, count := range []int{1, 2, 3, 7, 16, 501, 600} {
			next, minSize, maxSize := 0, trials, 0
			for i := 0; i < count; i++ {
				start, end := shardRange(trials, i, count)
				if start != next || end < start {
					t.Fatalf("shardRange(%d,%d,%d) = [%d,%d): does not tile (expected start %d)",
						trials, i, count, start, end, next)
				}
				if size := end - start; size < minSize {
					minSize = size
				} else if size > maxSize {
					maxSize = size
				}
				next = end
			}
			if next != trials {
				t.Fatalf("shardRange(%d,·,%d) covers [0,%d)", trials, count, next)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("shardRange(%d,·,%d): shard sizes differ by more than one", trials, count)
			}
		}
	}
}

// TestMergeStatesValidation pins the refusals: an incomplete shard, a
// missing shard, an overlapping shard, and a shard from a different
// campaign are all rejected.
func TestMergeStatesValidation(t *testing.T) {
	cfg := streamCases()[0]
	mk := func(shard, count int) *CampaignState {
		start, end := shardRange(cfg.Trials, shard, count)
		st := newCampaignState(cfg, obs.DefaultCapacity, start, end)
		st.Next = end
		return st
	}
	if _, err := MergeStates(nil); err == nil {
		t.Errorf("empty merge must fail")
	}
	incomplete := mk(0, 2)
	incomplete.Next--
	if _, err := MergeStates([]*CampaignState{incomplete, mk(1, 2)}); err == nil {
		t.Errorf("incomplete shard must be rejected")
	}
	if _, err := MergeStates([]*CampaignState{mk(0, 3), mk(2, 3)}); err == nil {
		t.Errorf("missing shard must be rejected")
	}
	if _, err := MergeStates([]*CampaignState{mk(0, 2), mk(0, 2), mk(1, 2)}); err == nil {
		t.Errorf("overlapping shards must be rejected")
	}
	other := cfg
	other.Seed++
	foreignStart, foreignEnd := shardRange(other.Trials, 1, 2)
	foreign := newCampaignState(other, obs.DefaultCapacity, foreignStart, foreignEnd)
	foreign.Next = foreignEnd
	if _, err := MergeStates([]*CampaignState{mk(0, 2), foreign}); err == nil {
		t.Errorf("shard from a different campaign must be rejected")
	}
}
