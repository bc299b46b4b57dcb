package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"superglue/internal/fault"
)

// foldCapacity is the ring capacity of the fold tests' trial recorders:
// small enough that some trials wrap their ring.
const foldCapacity = 24

// recordTrial feeds r one deterministic trial's worth of events drawn
// from seed: every event kind, migrations with and without xcall, every
// storage event, storage write/checkpoint counters, and components that
// only some trials touch (the unnamed 0 and 7). Components 1–3 are
// named in every trial, as a trial machine's kernel names its
// components when the recorder is installed.
func recordTrial(r *Recorder, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r.SetComponentName(1, "sched")
	r.SetComponentName(2, "mm")
	r.SetComponentName(3, "lock")
	mechs := Mechanisms()
	kinds := fault.Kinds()
	comps := []int32{1, 2, 3, 1, 2, 7}
	n := 4 + rng.Intn(2*foldCapacity)
	for e := 0; e < n; e++ {
		now := int64(10 * e)
		comp := comps[rng.Intn(len(comps))]
		gen := uint64(rng.Intn(4))
		switch rng.Intn(14) {
		case 0, 1:
			r.RecordInvoke(comp, 1, "fn", now, gen)
		case 2:
			r.RecordUpcall(comp, 2, FnOf("sg.recover"), now, gen)
		case 3:
			fk := fault.KindUnknown
			if rng.Intn(4) > 0 {
				fk = kinds[rng.Intn(len(kinds))]
			}
			r.RecordFault(comp, 1, FnOf("fn"), now, gen, fk, fault.DefaultSeverity(fk))
		case 4:
			r.RecordReboot(comp, 1, now, gen+1, int64(rng.Intn(3000)), uint64(rng.Intn(9)))
		case 5, 6:
			m := mechs[rng.Intn(len(mechs))]
			r.RecordRecovery(m, comp, 1, FnOf("fn"), now, gen, int64(rng.Intn(70000)), uint64(rng.Intn(9)))
		case 7:
			r.RecordReflect(now, rng.Intn(5))
		case 8:
			r.RecordDegraded(comp, 1, FnOf("fn"), now, gen)
		case 9:
			from := int32(rng.Intn(3))
			r.RecordMigration(from, (from+1)%3, 1, now, int64(rng.Intn(40)), rng.Intn(2) == 0)
		case 10:
			r.RecordStorageRebuild(rng.Intn(3), rng.Intn(30), rng.Intn(2) == 0)
		case 11:
			r.RecordStorageRepair(rng.Intn(3), "read")
		case 12:
			r.RecordStorageQuorumLost("read")
		default:
			r.RecordStorageWrite(rng.Intn(3))
			if rng.Intn(3) == 0 {
				r.RecordStorageCheckpoint(rng.Intn(3))
			}
		}
	}
}

// foldReference is what a campaign merges without the fold: every
// trial's Snapshot merged in order, trimmed lazily at twice the capacity
// and exactly at the end.
func foldReference(seeds []int64, capacity int) Snapshot {
	var s Snapshot
	for _, seed := range seeds {
		r := NewRecorder(foldCapacity)
		recordTrial(r, seed)
		s.Merge(r.Snapshot())
		if len(s.Events) >= 2*capacity {
			s.Trim(capacity)
		}
	}
	s.Trim(capacity)
	return s
}

// foldTyped is the same campaign through the typed fold: each trial's
// aggregates are absorbed into an accumulator and its events appended
// to a Stream, on recorders reused through Reset; the accumulator is
// rendered and merged, and the stream's events taken, at every flush
// point and at the end.
func foldTyped(seeds []int64, capacity, flushEvery int) Snapshot {
	var s Snapshot
	recs := []*Recorder{NewRecorder(foldCapacity), NewRecorder(foldCapacity)}
	stream := NewStream(capacity, nil)
	var acc *Recorder
	pending := 0
	flush := func() {
		if pending > 0 {
			s.Merge(acc.Snapshot())
			acc, pending = nil, 0
		}
		s.Events = stream.Events()
		s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
	}
	for i, seed := range seeds {
		r := recs[i%len(recs)]
		r.Reset()
		recordTrial(r, seed)
		if acc == nil {
			acc = NewRecorder(capacity)
		}
		acc.Absorb(r)
		pending++
		stream.Append(r)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			flush()
		}
	}
	flush()
	return s
}

// sameSnapshot compares two snapshots field by field and as JSON bytes.
func sameSnapshot(t *testing.T, label string, got, want Snapshot) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s differs\n got: %+v\nwant: %+v", label, g.Type().Field(i).Name,
				g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Errorf("%s: JSON differs", label)
	}
}

// TestAbsorbMatchesSnapshotMerge is the differential test of the typed
// fold: absorbing trials into an accumulator, appending their events
// to a Stream, and merging the rendered accumulator produces
// exactly the snapshot that merging every trial's Snapshot produces —
// for every event kind, wrapped rings, components only some trials
// touch, reused recorders, and any flush interval.
func TestAbsorbMatchesSnapshotMerge(t *testing.T) {
	seeds := make([]int64, 40)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}
	wrapped := 0
	for _, seed := range seeds {
		r := NewRecorder(foldCapacity)
		recordTrial(r, seed)
		if r.TotalEvents() > foldCapacity {
			wrapped++
		}
	}
	if wrapped == 0 || wrapped == len(seeds) {
		t.Fatalf("%d of %d trials wrap their ring; want some but not all", wrapped, len(seeds))
	}
	for _, capacity := range []int{16, 100, DefaultCapacity} {
		want := foldReference(seeds, capacity)
		if want.Storage == nil || want.CrossCoreLatency == nil || len(want.Cores) == 0 {
			t.Fatalf("reference campaign misses storage or migration aggregates: %+v", want)
		}
		for _, every := range []int{0, 1, 3, 7} {
			got := foldTyped(seeds, capacity, every)
			sameSnapshot(t, fmt.Sprintf("capacity %d, flush every %d", capacity, every), got, want)
		}
	}
}

// TestResetRecorderMatchesFresh: a recorder reset after a trial that
// touched unnamed components, then named and fed the next trial, snapshots
// exactly as a fresh recorder fed that trial does.
func TestResetRecorderMatchesFresh(t *testing.T) {
	reused := NewRecorder(foldCapacity)
	for seed := int64(1); seed <= 30; seed++ {
		reused.Reset()
		recordTrial(reused, seed)
		fresh := NewRecorder(foldCapacity)
		recordTrial(fresh, seed)
		sameSnapshot(t, fmt.Sprintf("trial %d", seed), reused.Snapshot(), fresh.Snapshot())
	}
}

// TestAbsorbIgnoresNilAndSelf: absorbing nil or the receiver itself
// changes nothing.
func TestAbsorbIgnoresNilAndSelf(t *testing.T) {
	r := NewRecorder(foldCapacity)
	recordTrial(r, 5)
	before := r.Snapshot()
	r.Absorb(nil)
	r.Absorb(r)
	var nilRec *Recorder
	nilRec.Absorb(r)
	sameSnapshot(t, "after nil/self absorb", r.Snapshot(), before)
}
