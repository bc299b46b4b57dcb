package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"superglue/internal/cbuf"
	"superglue/internal/fault"
	"superglue/internal/kernel"
)

func newReplicatedStore(n int) (*Store, *cbuf.Manager) {
	cm := cbuf.NewManager(0)
	s := NewReplicated(cm, n)
	s.Attach(kernel.ComponentID(42))
	return s, cm
}

// populate writes a deterministic mix of creators, slices, and remaps.
func populate(t testing.TB, s *Store, cm *cbuf.Manager) map[kernel.Word][]byte {
	t.Helper()
	want := make(map[kernel.Word][]byte)
	for id := kernel.Word(1); id <= 5; id++ {
		s.RecordCreator(testClass, id, 3, []kernel.Word{id * 10})
		data := bytes.Repeat([]byte{byte('a' + id)}, int(4+id))
		b := writeCbuf(t, cm, 9, data)
		if err := s.SaveSlice(testClass, id, 0, b, 0, len(data)); err != nil {
			t.Fatalf("SaveSlice(%d): %v", id, err)
		}
		want[id] = data
	}
	s.Remap(testClass, 1, 6)
	want[6] = want[1]
	delete(want, 1)
	return want
}

// checkContents verifies every resource reads back correctly through the
// quorum and resolves through remap chains.
func checkContents(t *testing.T, s *Store, want map[kernel.Word][]byte) {
	t.Helper()
	for id, data := range want {
		got, err := s.ReadAll(testClass, id)
		if err != nil {
			t.Fatalf("ReadAll(%d): %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("ReadAll(%d) = %q; want %q", id, got, data)
		}
	}
	if got := s.Resolve(testClass, 1); got != 6 {
		t.Fatalf("Resolve(1) = %d; want 6", got)
	}
}

func TestReplicatedStoreBasicAgreement(t *testing.T) {
	s, cm := newReplicatedStore(3)
	want := populate(t, s, cm)
	checkContents(t, s, want)
	if got := s.Replicas(); got != 3 {
		t.Fatalf("Replicas = %d; want 3", got)
	}
	if n := s.QuorumRepairs(); n != 0 {
		t.Fatalf("QuorumRepairs = %d on a healthy store; want 0", n)
	}
}

func TestQuorumSurvivesMinorityCrash(t *testing.T) {
	s, cm := newReplicatedStore(3)
	want := populate(t, s, cm)
	if !s.CrashReplica(1) {
		t.Fatal("CrashReplica(1) = false")
	}
	if s.ReplicaLive(1) {
		t.Fatal("replica 1 still live after crash")
	}
	// Every read must still be correct; the first operation rebuilds the
	// crashed replica from its checkpoint + WAL.
	checkContents(t, s, want)
	if !s.ReplicaLive(1) {
		t.Fatal("replica 1 not rebuilt by subsequent reads")
	}
	// The detection was booked as a typed storage-crash event.
	var crashEvents int
	for _, e := range s.Faults() {
		if e.Kind == fault.KindStorageCrash {
			crashEvents++
		}
	}
	if crashEvents != 1 {
		t.Fatalf("booked %d storage-crash events; want 1", crashEvents)
	}
}

func TestQuorumSurvivesMinorityCorruption(t *testing.T) {
	// Walk pick over a wide range so the flip lands in live slice state,
	// WAL records, and (with a low checkpoint trigger) checkpoints.
	for pick := 0; pick < 40; pick += 7 {
		t.Run(fmt.Sprintf("pick=%d", pick), func(t *testing.T) {
			s, cm := newReplicatedStore(3)
			s.SetCheckpointEvery(8)
			want := populate(t, s, cm)
			if _, ok := s.CorruptReplica(2, pick); !ok {
				t.Fatal("CorruptReplica found nothing to corrupt")
			}
			// A corrupt WAL/checkpoint only matters at rebuild: crash the
			// replica so the next read replays its durable images.
			s.CrashReplica(2)
			checkContents(t, s, want)
			// And the store must have converged: every replica agrees again.
			if _, ok := s.CorruptReplica(2, pick); !ok {
				t.Fatal("replica 2 empty after repair")
			}
			s.CrashReplica(2)
			checkContents(t, s, want)
		})
	}
}

func TestQuorumRepairsDivergentLiveReplica(t *testing.T) {
	s, cm := newReplicatedStore(3)
	want := populate(t, s, cm)
	// Corrupt a live slice checksum on replica 0 (the legacy CorruptOne
	// path targets replica 0). Reads must still serve the majority's data
	// and repair the divergent copy.
	if _, ok := s.CorruptOne(testClass, 0); !ok {
		t.Fatal("CorruptOne found nothing")
	}
	checkContents(t, s, want)
	if n := s.QuorumRepairs(); n == 0 {
		t.Fatal("QuorumRepairs = 0; want at least one repair")
	}
	if n := s.CorruptionsDetected(); n == 0 {
		t.Fatal("CorruptionsDetected = 0; want at least one detection")
	}
	// After the repair the store is healthy: no further repairs needed.
	before := s.QuorumRepairs()
	checkContents(t, s, want)
	if after := s.QuorumRepairs(); after != before {
		t.Fatalf("repairs grew %d -> %d on a repaired store", before, after)
	}
}

func TestSingleReplicaCorruptionIsDataLoss(t *testing.T) {
	// The -replicas 1 store is the paper's trusted single copy: a
	// corrupted extent has no peer to repair from, so the read fails with
	// ErrCorrupted — the expected data-loss outcome docs/STORAGE.md
	// documents for single-copy campaigns.
	s, cm := newStore()
	data := []byte("irreplaceable")
	b := writeCbuf(t, cm, 9, data)
	if err := s.SaveSlice(testClass, 1, 0, b, 0, len(data)); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	if _, ok := s.CorruptOne(testClass, 0); !ok {
		t.Fatal("CorruptOne found nothing")
	}
	if _, err := s.ReadAll(testClass, 1); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("ReadAll error = %v; want ErrCorrupted", err)
	}
}

func TestCrashAllReplicasStillRebuilds(t *testing.T) {
	// Fail-stop loses only in-memory state; the durable WAL + checkpoint
	// images survive, so even a full-store crash rebuilds losslessly (the
	// model's analogue of a power cycle).
	s, cm := newReplicatedStore(3)
	want := populate(t, s, cm)
	for i := 0; i < 3; i++ {
		s.CrashReplica(i)
	}
	checkContents(t, s, want)
}

// TestCheckpointReplayMatchesLiveState is the checkpoint+replay == live
// property: after a random operation sequence and a crash at a random
// point, a rebuilt replica must answer every query exactly like a store
// that never crashed.
func TestCheckpointReplayMatchesLiveState(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			live, cmLive := newReplicatedStore(3)
			crashed, cmCrashed := newReplicatedStore(3)
			live.SetCheckpointEvery(5)
			crashed.SetCheckpointEvery(5)
			rng := rand.New(rand.NewSource(seed))
			nOps := 10 + rng.Intn(40)
			crashAt := rng.Intn(nOps)
			rngOps := rand.New(rand.NewSource(seed + 1000))
			for op := 0; op < nOps; op++ {
				if op == crashAt {
					crashed.CrashReplica(rngOps.Intn(3))
				}
				id := kernel.Word(rngOps.Intn(6) + 1)
				// One deterministic draw stream drives both stores.
				kind := rngOps.Intn(6)
				data := bytes.Repeat([]byte{byte('a' + id)}, rngOps.Intn(8)+1)
				off := rngOps.Intn(4)
				apply := func(s *Store, cm *cbuf.Manager) {
					switch kind {
					case 0:
						s.RecordCreator(testClass, id, 3, []kernel.Word{id})
					case 1:
						s.RemoveCreator(testClass, id)
					case 2:
						s.Remap(testClass, id, id+1)
					case 3:
						b := mustCbuf(t, cm, data)
						if err := s.SaveSlice(testClass, id, off, b, 0, len(data)); err != nil {
							t.Fatalf("SaveSlice: %v", err)
						}
					case 4:
						s.Truncate(testClass, id, off+2)
					case 5:
						s.Drop(testClass, id)
					}
				}
				apply(live, cmLive)
				apply(crashed, cmCrashed)
			}
			// Compare every observable answer.
			for id := kernel.Word(0); id <= 8; id++ {
				wantRec, wantOK := live.LookupCreator(testClass, id)
				gotRec, gotOK := crashed.LookupCreator(testClass, id)
				if wantOK != gotOK || fmt.Sprintf("%v", wantRec) != fmt.Sprintf("%v", gotRec) {
					t.Fatalf("LookupCreator(%d): crashed store %v,%t; live %v,%t", id, gotRec, gotOK, wantRec, wantOK)
				}
				if w, g := live.Resolve(testClass, id), crashed.Resolve(testClass, id); w != g {
					t.Fatalf("Resolve(%d): crashed %d; live %d", id, g, w)
				}
				if w, g := live.HasData(testClass, id), crashed.HasData(testClass, id); w != g {
					t.Fatalf("HasData(%d): crashed %t; live %t", id, g, w)
				}
				wantData, wantErr := live.ReadAll(testClass, id)
				gotData, gotErr := crashed.ReadAll(testClass, id)
				if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(wantData, gotData) {
					t.Fatalf("ReadAll(%d): crashed (%q, %v); live (%q, %v)", id, gotData, gotErr, wantData, wantErr)
				}
			}
			if w, g := fmt.Sprintf("%v", live.Creators(testClass)), fmt.Sprintf("%v", crashed.Creators(testClass)); w != g {
				t.Fatalf("Creators: crashed %s; live %s", g, w)
			}
			if n := crashed.QuorumRepairs(); n != 0 {
				t.Fatalf("clean crash/rebuild needed %d quorum repairs; want 0", n)
			}
		})
	}
}

func mustCbuf(t *testing.T, cm *cbuf.Manager, data []byte) cbuf.ID {
	t.Helper()
	b, err := cm.Alloc(9, len(data))
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := cm.Write(b, 9, 0, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return b
}

// TestWALChecksumCatchesBitFlips verifies the journal self-checks: a
// sealed record fails verification after any field is perturbed.
func TestWALChecksumCatchesBitFlips(t *testing.T) {
	rec := walRecord{op: opSaveSlice, class: 2, id: 7,
		slice: Slice{Offset: 1, Length: 3, Cbuf: 11, CbufOff: 0, Sum: 99}}
	rec.seal()
	if !rec.verify() {
		t.Fatal("freshly sealed record fails verification")
	}
	cases := []func(*walRecord){
		func(r *walRecord) { r.op = opDrop },
		func(r *walRecord) { r.id++ },
		func(r *walRecord) { r.slice.Sum ^= 1 },
		func(r *walRecord) { r.sum ^= 1 },
	}
	for i, mutate := range cases {
		m := rec
		mutate(&m)
		if m.verify() {
			t.Fatalf("case %d: mutated record still verifies", i)
		}
	}
}

// TestCheckpointTruncatesWAL pins the checkpoint contract: reaching the
// trigger length captures a verified state image and empties the log.
func TestCheckpointTruncatesWAL(t *testing.T) {
	s, _ := newReplicatedStore(2)
	s.SetCheckpointEvery(4)
	for i := 0; i < 10; i++ {
		s.RecordCreator(testClass, kernel.Word(i), 3, nil)
	}
	for i, r := range s.reps {
		if r.cp == nil {
			t.Fatalf("replica %d has no checkpoint after 10 writes at trigger 4", i)
		}
		if len(r.wal) >= 4 {
			t.Fatalf("replica %d WAL length %d; want < 4 after checkpoint", i, len(r.wal))
		}
		if sum32(r.cp.img) != r.cp.sum {
			t.Fatalf("replica %d checkpoint checksum mismatch", i)
		}
	}
}
