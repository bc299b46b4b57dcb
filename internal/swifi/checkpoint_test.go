package swifi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"superglue/internal/storage"
)

// haltedCheckpoint runs cfg halted after half its trials and returns the
// checkpoint path it wrote.
func haltedCheckpoint(t testing.TB, cfg Config, dir string) string {
	cfg.Workers = 2
	cfg.Checkpoint = filepath.Join(dir, "ckpt")
	cfg.CheckpointEvery = 5
	cfg.HaltAfter = cfg.Trials / 2
	if _, err := Run(cfg); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted Run: err = %v; want ErrHalted", err)
	}
	return cfg.Checkpoint
}

// TestResumeRefusesInconsistentState pins validate on the resume path: a
// validly sealed checkpoint of a halted traced campaign, edited so its
// fields contradict each other, is refused with a *StateError instead of
// panicking (traced without a snapshot), resuming from a cursor its
// counters do not support (a cursor past the end or before the start),
// or carrying a per-kind entry MergeStates would dereference.
func TestResumeRefusesInconsistentState(t *testing.T) {
	cases := []struct {
		name string
		edit func(st *CampaignState)
	}{
		{"traced without snapshot", func(st *CampaignState) { st.Snapshot = nil }},
		{"cursor past end", func(st *CampaignState) { st.Next = st.End + 5 }},
		{"cursor before start", func(st *CampaignState) { st.Next = st.Start - 3 }},
		{"kind without counters", func(st *CampaignState) { st.Kinds = map[string]*KindStats{"hang": nil} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := streamCases()[0]
			cfg.Checkpoint = haltedCheckpoint(t, cfg, t.TempDir())
			st, err := LoadCampaignState(cfg.Checkpoint)
			if err != nil {
				t.Fatalf("load halted checkpoint: %v", err)
			}
			c.edit(st)
			if err := st.Persist(cfg.Checkpoint); err != nil {
				t.Fatalf("persist edited checkpoint: %v", err)
			}
			cfg.Resume = true
			res, err := Run(cfg)
			var se *StateError
			if !errors.As(err, &se) {
				injected := -1
				if res != nil {
					injected = res.Injected
				}
				t.Fatalf("resume: injected %d of %d, err = %v; want a *StateError", injected, cfg.Trials, err)
			}
			if se.Path != cfg.Checkpoint {
				t.Errorf("StateError.Path = %q; want %q", se.Path, cfg.Checkpoint)
			}
		})
	}
}

// TestLoadRestoresEmptyKindColumns pins the other half of the per-kind
// round trip: Persist omits a shaped campaign's per-kind map while it is
// empty, and loading restores it, so a campaign halted before any fault
// kind fired still folds per-kind columns once resumed.
func TestLoadRestoresEmptyKindColumns(t *testing.T) {
	cfg := streamCases()[1]
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := newCampaignState(cfg, 16, 0, cfg.Trials).Persist(path); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	st, err := LoadCampaignState(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if st.Kinds == nil {
		t.Fatalf("loaded %s campaign has no per-kind map", st.Shape)
	}
}

// stateSeeds returns the payloads of real campaign-state files: the
// checkpoint of a halted traced campaign and the shard files of a traced
// campaign split in two, for a legacy and a shaped campaign. The small
// trace capacity keeps the payloads short enough to fuzz quickly.
func stateSeeds(f *testing.F) [][]byte {
	dir := f.TempDir()
	var paths []string
	for i, cfg := range []Config{streamCases()[4], streamCases()[5]} {
		sub := filepath.Join(dir, fmt.Sprint(i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			f.Fatal(err)
		}
		paths = append(paths, haltedCheckpoint(f, cfg, sub))
		for shard := 0; shard < 2; shard++ {
			cfg := cfg
			cfg.Workers = 2
			cfg.Shard, cfg.ShardCount = shard, 2
			cfg.ShardOut = filepath.Join(sub, fmt.Sprintf("shard%d", shard))
			if _, err := Run(cfg); err != nil {
				f.Fatalf("shard %d Run: %v", shard, err)
			}
			paths = append(paths, cfg.ShardOut)
		}
	}
	var seeds [][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := storage.OpenFrame(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		seeds = append(seeds, payload)
	}
	return seeds
}

// FuzzLoadCampaignState drives the campaign-state decoder with arbitrary
// payloads (run with `go test -fuzz=FuzzLoadCampaignState
// ./internal/swifi`). The harness seals each payload in a valid frame,
// so mutations reach the JSON decoder and validate instead of stopping
// at the checksum (FuzzOpenFrame covers the frame itself). The decoder
// must never panic, must reject with a *StateError, and must accept only
// states that pass validate and survive Persist → LoadCampaignState
// unchanged.
func FuzzLoadCampaignState(f *testing.F) {
	for _, payload := range stateSeeds(f) {
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeCampaignState(storage.SealFrame(payload))
		if err != nil {
			var se *StateError
			if !errors.As(err, &se) {
				t.Fatalf("decode error %v (%T); want *StateError", err, err)
			}
			return
		}
		if err := st.validate(); err != nil {
			t.Fatalf("accepted state fails validate: %v", err)
		}
		path := filepath.Join(t.TempDir(), "state")
		if err := st.Persist(path); err != nil {
			t.Fatalf("Persist: %v", err)
		}
		back, err := LoadCampaignState(path)
		if err != nil {
			t.Fatalf("reload of a persisted accepted state: %v", err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("state changed across Persist → LoadCampaignState:\n got %+v\nwant %+v", back, st)
		}
	})
}

// mergeFuzzShards runs one small traced storm campaign unsharded and in
// three shards, and returns the unsharded run's persisted bytes and the
// shard states loaded back from their files.
func mergeFuzzShards(f *testing.F) ([]byte, []*CampaignState) {
	cfg := Config{Service: "lock", Workload: Workloads()["lock"], Iters: 2, Trials: 10,
		Seed: 2026, Profile: Profiles()["lock"], Trace: true, TraceCapacity: 16,
		Shape: ShapeStorm, StormFaults: 2, Workers: 1}
	dir := f.TempDir()
	single := cfg
	single.Checkpoint = filepath.Join(dir, "single")
	if _, err := Run(single); err != nil {
		f.Fatalf("unsharded Run: %v", err)
	}
	want, err := os.ReadFile(single.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	var shards []*CampaignState
	for i := 0; i < 3; i++ {
		cfg := cfg
		cfg.Shard, cfg.ShardCount = i, 3
		cfg.ShardOut = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if _, err := Run(cfg); err != nil {
			f.Fatalf("shard %d Run: %v", i, err)
		}
		st, err := LoadCampaignState(cfg.ShardOut)
		if err != nil {
			f.Fatalf("load shard %d: %v", i, err)
		}
		shards = append(shards, st)
	}
	return want, shards
}

// tiles reports whether states, in any order, are complete shards of one
// campaign whose ranges concatenate exactly to [0, Trials).
func tiles(states []*CampaignState) bool {
	if len(states) == 0 {
		return false
	}
	sorted := slices.Clone(states)
	slices.SortStableFunc(sorted, func(a, b *CampaignState) int { return a.Start - b.Start })
	first, next := sorted[0], 0
	for _, st := range sorted {
		if st.ConfigHash != first.ConfigHash || st.Service != first.Service ||
			st.Trials != first.Trials || st.Capacity != first.Capacity ||
			st.Shape != first.Shape || st.Traced != first.Traced || st.Cores != first.Cores ||
			st.Next != st.End || st.Start != next {
			return false
		}
		next = st.End
	}
	return next == first.Trials
}

// FuzzMergeStates drives -merge with edited shard sets (run with
// `go test -fuzz=FuzzMergeStates ./internal/swifi`). The input is a
// program of three-byte instructions (op, a, b) over the three shard
// files of one campaign: drop shard a, duplicate shard a, swap shards a
// and b, or add the signed byte b to one of Start, End, Next,
// ConfigHash, Trials or Capacity of shard a, or rename its Shape. Every
// edited shard is re-sealed, written and loaded back through
// LoadCampaignState, and the states that load are merged. Nothing may
// panic, and every refusal must be a *StateError. The intact set, in any
// order, must merge to the unsharded run's persisted bytes; a set that
// does not tile [0, Trials) must be refused. MergeStates checks shards
// against each other, not against a Config, so an edit applied alike to
// every shard of a set may still merge: the merge must then be a valid
// state.
func FuzzMergeStates(f *testing.F) {
	want, shards := mergeFuzzShards(f)
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2})                      // reorder
	f.Add([]byte{0, 1, 0})                      // drop the middle shard
	f.Add([]byte{1, 2, 0})                      // duplicate the last shard
	f.Add([]byte{3, 0, 1})                      // Start+1
	f.Add([]byte{7, 1, 0xff})                   // End-1
	f.Add([]byte{11, 2, 1})                     // Next+1
	f.Add([]byte{15, 1, 1})                     // ConfigHash+1
	f.Add([]byte{19, 0, 1})                     // Trials+1
	f.Add([]byte{23, 2, 4})                     // Capacity+4
	f.Add([]byte{27, 1, 0})                     // Shape renamed
	f.Add([]byte{23, 0, 4, 23, 1, 4, 23, 2, 4}) // Capacity+4 on every shard
	shapes := []string{"legacy", "correlated", "storm", "during-recovery", "bogus"}
	f.Fuzz(func(t *testing.T, prog []byte) {
		type entry struct {
			shard  int
			st     CampaignState
			edited bool
		}
		set := make([]entry, len(shards))
		for i, st := range shards {
			set[i] = entry{shard: i, st: *st}
		}
		for ; len(prog) >= 3 && len(set) > 0; prog = prog[3:] {
			op, a, b := prog[0], int(prog[1])%len(set), prog[2]
			delta := int(int8(b))
			e := &set[a]
			switch op % 4 {
			case 0:
				set = slices.Delete(set, a, a+1)
			case 1:
				set = append(set, set[a])
			case 2:
				j := int(b) % len(set)
				set[a], set[j] = set[j], set[a]
			case 3:
				before := e.st
				switch (op / 4) % 7 {
				case 0:
					e.st.Start += delta
				case 1:
					e.st.End += delta
				case 2:
					e.st.Next += delta
				case 3:
					e.st.ConfigHash += uint64(delta)
				case 4:
					e.st.Trials += delta
				case 5:
					e.st.Capacity += delta
				case 6:
					e.st.Shape = shapes[int(b)%len(shapes)]
				}
				e.edited = e.edited || !reflect.DeepEqual(before, e.st)
			}
		}

		dir := t.TempDir()
		intact := len(set) == len(shards)
		used := make([]bool, len(shards))
		var loaded []*CampaignState
		for i, e := range set {
			intact = intact && !e.edited && !used[e.shard]
			used[e.shard] = true
			payload, err := json.Marshal(&e.st)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprint(i))
			if err := os.WriteFile(path, storage.SealFrame(payload), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := LoadCampaignState(path)
			if err != nil {
				var se *StateError
				if !errors.As(err, &se) {
					t.Fatalf("load shard: %v (%T); want *StateError", err, err)
				}
				continue
			}
			loaded = append(loaded, st)
		}

		merged, err := MergeStates(loaded)
		if err != nil {
			var se *StateError
			if !errors.As(err, &se) {
				t.Fatalf("merge: %v (%T); want *StateError", err, err)
			}
		}
		switch {
		case intact:
			if err != nil {
				t.Fatalf("intact shard set refused: %v", err)
			}
			path := filepath.Join(dir, "merged")
			if err := merged.Persist(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("intact shard set merged to bytes other than the unsharded run's")
			}
		case !tiles(loaded):
			if err == nil {
				t.Fatalf("a shard set that does not tile [0, Trials) merged")
			}
		case err != nil:
			t.Fatalf("a tiling shard set refused: %v", err)
		default:
			if err := merged.validate(); err != nil {
				t.Fatalf("merged state fails validate: %v", err)
			}
		}
	})
}

// parentFormatCase is the campaign whose halted checkpoint
// testdata/ramfs-storm-halted.ckpt holds: written after 12 of its 24
// trials by the engine as it was when trace events still carried their
// function as a string. Its events name interface functions, a storage
// function invoked by name, the kernel's fault markers and the store's.
func parentFormatCase() Config {
	return Config{Service: "ramfs", Workload: Workloads()["ramfs"], Iters: 3, Trials: 24,
		Seed: 2026, Profile: Profiles()["ramfs"], Trace: true, TraceCapacity: 256,
		Shape: ShapeStorm, Replicas: 3, Workers: 1, DiscardTrials: true}
}

// TestResumeCheckpointOfEarlierFormat pins the trace-event file format
// across the change from string function names to interned FnIDs: the
// committed checkpoint decodes, re-encodes to exactly its own bytes
// (decodeCampaignState refuses anything else), and resumes to the
// Result bytes an uninterrupted run gives.
func TestResumeCheckpointOfEarlierFormat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ramfs-storm-halted.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := parentFormatCase()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(cfg.Checkpoint, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadCampaignState(cfg.Checkpoint)
	if err != nil {
		t.Fatalf("load committed checkpoint: %v", err)
	}
	if st.Next != 12 || st.Snapshot == nil || len(st.Snapshot.Events) == 0 {
		t.Fatalf("committed checkpoint: cursor %d, snapshot %v", st.Next, st.Snapshot != nil)
	}
	cfg.Resume = true
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	want, err := Run(parentFormatCase())
	if err != nil {
		t.Fatalf("uninterrupted Run: %v", err)
	}
	if got, want := resultJSON(t, resumed), resultJSON(t, want); got != want {
		t.Fatalf("resumed Result differs from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
}
