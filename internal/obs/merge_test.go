package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"superglue/internal/fault"
)

// trialSnapshots builds n deterministic per-trial snapshots with a mix
// of event kinds, components, and recovery latencies — the shape the
// SWIFI engine feeds Merge.
func trialSnapshots(t *testing.T, n int, seed int64) []Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mechs := Mechanisms()
	out := make([]Snapshot, n)
	for i := range out {
		r := NewRecorder(64)
		comp := int32(2 + rng.Intn(3))
		r.SetComponentName(comp, "svc")
		for e := 0; e < 3+rng.Intn(6); e++ {
			now := int64(e * 5)
			switch rng.Intn(4) {
			case 0:
				r.RecordInvoke(comp, 1, "fn", now, 0)
			case 1:
				// Vary the taxonomy classification (including the
				// unclassified zero values) so the associativity property
				// covers the per-kind/per-severity counters too.
				kinds := fault.Kinds()
				fk := fault.KindUnknown
				if rng.Intn(4) > 0 {
					fk = kinds[rng.Intn(len(kinds))]
				}
				r.RecordFault(comp, 1, FnOf("fn"), now, uint64(e), fk, fault.DefaultSeverity(fk))
			case 2:
				r.RecordReboot(comp, 1, now, uint64(e), int64(rng.Intn(2000)), uint64(e))
			default:
				m := mechs[rng.Intn(len(mechs))]
				r.RecordRecovery(m, comp, 1, FnOf("fn"), now, uint64(e), int64(rng.Intn(5000)), 3)
			}
		}
		out[i] = r.Snapshot()
	}
	return out
}

// foldInto merges snaps into dst in order.
func foldInto(dst *Snapshot, snaps []Snapshot) {
	for _, s := range snaps {
		dst.Merge(s)
	}
}

// TestMergeHalvesEqualsWhole is the associativity property the parallel
// campaign engine relies on: folding all trial snapshots in order equals
// folding the two halves separately and merging the halves — for any
// split point. Equality is both structural and byte-level JSON.
func TestMergeHalvesEqualsWhole(t *testing.T) {
	snaps := trialSnapshots(t, 20, 42)
	var whole Snapshot
	foldInto(&whole, snaps)
	for _, split := range []int{0, 1, 7, 10, 19, 20} {
		var a, b Snapshot
		foldInto(&a, snaps[:split])
		foldInto(&b, snaps[split:])
		a.Merge(b)
		if !reflect.DeepEqual(whole, a) {
			t.Fatalf("split at %d: merged halves differ from whole\nwhole: %+v\nhalves: %+v", split, whole, a)
		}
		wj, err := json.Marshal(whole)
		if err != nil {
			t.Fatalf("marshal whole: %v", err)
		}
		aj, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal halves: %v", err)
		}
		if string(wj) != string(aj) {
			t.Fatalf("split at %d: JSON differs", split)
		}
	}
}

// TestMergeInvariants checks the aggregate bookkeeping: totals sum,
// events are renumbered contiguously, all 8 mechanisms stay present,
// and components are unioned in ID order.
func TestMergeInvariants(t *testing.T) {
	snaps := trialSnapshots(t, 8, 7)
	var total uint64
	for _, s := range snaps {
		total += s.TotalEvents
	}
	var m Snapshot
	foldInto(&m, snaps)
	if m.TotalEvents != total {
		t.Errorf("TotalEvents = %d, want %d", m.TotalEvents, total)
	}
	if uint64(len(m.Events)) != total || m.DroppedEvents != 0 {
		t.Errorf("events = %d dropped = %d, want %d and 0", len(m.Events), m.DroppedEvents, total)
	}
	for i, ev := range m.Events {
		if ev.Seq != uint64(i)+1 {
			t.Fatalf("event %d has Seq %d; want contiguous renumbering", i, ev.Seq)
		}
	}
	if len(m.Mechanisms) != len(Mechanisms()) {
		t.Errorf("mechanisms = %d, want %d (all present, even zero)", len(m.Mechanisms), len(Mechanisms()))
	}
	for i := 1; i < len(m.Components); i++ {
		if m.Components[i-1].ID >= m.Components[i].ID {
			t.Errorf("components not in ID order: %d before %d", m.Components[i-1].ID, m.Components[i].ID)
		}
	}
}

// TestMergeDoesNotAliasSource: mutating the merged snapshot must not
// write through into the per-trial snapshot it came from.
func TestMergeDoesNotAliasSource(t *testing.T) {
	snaps := trialSnapshots(t, 2, 11)
	before, err := json.Marshal(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	var m Snapshot
	foldInto(&m, snaps)
	for i := range m.Events {
		m.Events[i].Fn = FnOf("clobbered")
	}
	for i := range m.Components {
		m.Components[i].Name = "clobbered"
		for j := range m.Components[i].Mechanisms {
			m.Components[i].Mechanisms[j].Count += 100
		}
	}
	after, err := json.Marshal(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Merge aliased the source snapshot's storage")
	}
}

// TestTrim checks the ring-mirroring bound: only the most recent
// capacity events survive, they keep their global sequence numbers, and
// DroppedEvents accounts for the rest.
func TestTrim(t *testing.T) {
	snaps := trialSnapshots(t, 10, 3)
	var m Snapshot
	foldInto(&m, snaps)
	n := len(m.Events)
	if n < 12 {
		t.Fatalf("want at least 12 events to trim, got %d", n)
	}
	const capEvents = 10
	m.Trim(capEvents)
	if len(m.Events) != capEvents {
		t.Fatalf("post-trim events = %d, want %d", len(m.Events), capEvents)
	}
	for i, ev := range m.Events {
		want := uint64(n-capEvents+i) + 1
		if ev.Seq != want {
			t.Errorf("trimmed event %d: Seq = %d, want %d (sequence preserved)", i, ev.Seq, want)
		}
	}
	if m.DroppedEvents != m.TotalEvents-uint64(capEvents) {
		t.Errorf("DroppedEvents = %d, want %d", m.DroppedEvents, m.TotalEvents-uint64(capEvents))
	}
	// Trimming to a bound larger than the stream is a no-op.
	before := len(m.Events)
	m.Trim(1 << 20)
	if len(m.Events) != before {
		t.Error("Trim with large capacity mutated the stream")
	}
	m.Trim(0)
	if len(m.Events) != before {
		t.Error("Trim(0) must trim nothing")
	}
}

// TestTrimInPlaceThenMerge: Trim compacts the survivors into the
// stream's own storage with their global sequence numbers, a following
// Merge continues the numbering after the last survivor, and neither
// writes through into the merged-in snapshot. A rolling trim-after-every
// merge must equal one batch merge trimmed once.
func TestTrimInPlaceThenMerge(t *testing.T) {
	snaps := trialSnapshots(t, 12, 5)
	var m Snapshot
	foldInto(&m, snaps[:8])
	n := len(m.Events)
	const capEvents = 10
	if n <= capEvents {
		t.Fatalf("want more than %d events to trim, got %d", capEvents, n)
	}
	backing := &m.Events[:1][0]
	m.Trim(capEvents)
	if &m.Events[0] != backing {
		t.Error("Trim reallocated the stream instead of compacting it in place")
	}
	for i, ev := range m.Events {
		if want := uint64(n-capEvents+i) + 1; ev.Seq != want {
			t.Fatalf("survivor %d: Seq = %d, want %d", i, ev.Seq, want)
		}
	}

	next := snaps[8]
	before, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	m.Merge(next)
	for i, ev := range m.Events[capEvents:] {
		if want := uint64(n+i) + 1; ev.Seq != want {
			t.Fatalf("appended event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	for i := range m.Events {
		m.Events[i].Fn = FnOf("clobbered")
	}
	after, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Merge after an in-place Trim aliased its argument")
	}

	var rolling, batch Snapshot
	for _, s := range snaps {
		rolling.Merge(s)
		rolling.Trim(capEvents)
		batch.Merge(s)
	}
	batch.Trim(capEvents)
	if !reflect.DeepEqual(rolling, batch) {
		t.Fatalf("rolling trim differs from batch trim\nrolling: %+v\nbatch:   %+v", rolling, batch)
	}
}
