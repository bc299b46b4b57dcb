package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"superglue/internal/fault"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordInvoke(1, 1, "fn", 0, 0)
	r.RecordUpcall(1, 1, FnOf("fn"), 0, 0)
	r.RecordFault(1, 1, FnOf("fn"), 0, 0, fault.KindUnknown, fault.SevUnknown)
	r.RecordReboot(1, 1, 0, 1, 10, 2)
	r.RecordRecovery(MechR0, 1, 1, FnOf("fn"), 0, 1, 10, 2)
	r.RecordReflect(0, 3)
	r.RecordDegraded(1, 1, FnOf("fn"), 0, 1)
	r.SetComponentName(1, "lock")
	r.Reset()
	if got := r.TotalEvents(); got != 0 {
		t.Fatalf("nil recorder TotalEvents = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 0 || len(snap.Components) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
	if len(snap.Mechanisms) != 8 {
		t.Fatalf("snapshot must list all 8 mechanisms, got %d", len(snap.Mechanisms))
	}
}

func TestCountersAndHistogram(t *testing.T) {
	r := NewRecorder(64)
	r.SetComponentName(2, "lock")
	r.RecordInvoke(2, 1, "lock_take", 5, 0)
	r.RecordInvoke(2, 1, "lock_take", 6, 0)
	r.RecordFault(2, 1, FnOf("lock_take"), 7, 0, fault.KindRegisterFlip, fault.SevError)
	r.RecordReboot(2, 1, 8, 1, 3, 4)
	r.RecordRecovery(MechR0, 2, 1, FnOf("lock_take"), 9, 1, 0, 3)
	r.RecordRecovery(MechR0, 2, 1, FnOf("lock_take"), 9, 1, 5, 7)
	r.RecordRecovery(MechT1, 2, 1, FnOf("lock_take"), 9, 1, 100, 1)
	r.RecordUpcall(2, 1, FnOf("sg.recover"), 10, 1)
	r.RecordDegraded(2, 1, FnOf("lock_take"), 11, 1)

	snap := r.Snapshot()
	if len(snap.Components) != 1 {
		t.Fatalf("components = %d, want 1", len(snap.Components))
	}
	c := snap.Components[0]
	if c.ID != 2 || c.Name != "lock" {
		t.Fatalf("component identity = %+v", c)
	}
	if c.Invokes != 2 || c.Faults != 1 || c.Reboots != 1 || c.Upcalls != 1 || c.Degraded != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}
	if c.FaultKinds["register-flip"] != 1 {
		t.Fatalf("per-component fault kinds wrong: %+v", c.FaultKinds)
	}
	if snap.FaultKinds["register-flip"] != 1 || snap.FaultSeverities["error"] != 1 {
		t.Fatalf("taxonomy counters wrong: kinds=%+v sevs=%+v", snap.FaultKinds, snap.FaultSeverities)
	}
	mech := map[string]MechanismSnapshot{}
	for _, m := range c.Mechanisms {
		mech[m.Mechanism] = m
	}
	r0 := mech["R0"]
	if r0.Count != 2 || r0.TotalVT != 5 || r0.MaxVT != 5 || r0.TotalSteps != 10 {
		t.Fatalf("R0 cell wrong: %+v", r0)
	}
	// vt=0 → bucket 0; vt=5 → bits.Len(5)=3 → bucket 3 (range [4,8)).
	if r0.Hist[0] != 1 || r0.Hist[3] != 1 {
		t.Fatalf("R0 histogram wrong: %v", r0.Hist)
	}
	// vt=100 → bits.Len(100)=7 → bucket 7 (range [64,128)).
	if t1 := mech["T1"]; t1.Hist[7] != 1 {
		t.Fatalf("T1 histogram wrong: %v", t1.Hist)
	}
	// RecordUpcall also files a U0 mechanism span.
	if u0 := mech["U0"]; u0.Count != 1 {
		t.Fatalf("U0 cell wrong: %+v", u0)
	}
	// The all-components aggregate includes every mechanism, zero or not.
	if len(snap.Mechanisms) != 8 {
		t.Fatalf("aggregate mechanisms = %d, want 8", len(snap.Mechanisms))
	}
	for _, m := range snap.Mechanisms {
		if m.Mechanism == "R0" && m.Count != 2 {
			t.Fatalf("aggregate R0 = %+v", m)
		}
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.RecordInvoke(1, 1, "fn", int64(i), 0)
	}
	snap := r.Snapshot()
	if snap.TotalEvents != 10 || snap.DroppedEvents != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", snap.TotalEvents, snap.DroppedEvents)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("ring copy = %d events, want 4", len(snap.Events))
	}
	for i, ev := range snap.Events {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (chronological, most recent kept)", i, ev.Seq, want)
		}
	}
}

func TestResetKeepsNames(t *testing.T) {
	r := NewRecorder(8)
	r.SetComponentName(1, "sched")
	r.RecordInvoke(1, 1, "fn", 0, 0)
	r.Reset()
	if r.TotalEvents() != 0 {
		t.Fatalf("reset did not clear events")
	}
	snap := r.Snapshot()
	if len(snap.Components) != 1 || snap.Components[0].Name != "sched" || snap.Components[0].Invokes != 0 {
		t.Fatalf("reset snapshot wrong: %+v", snap.Components)
	}
}

func TestBucketLabels(t *testing.T) {
	cases := map[int]string{0: "0", 1: "1", 2: "3", 3: "7", NumBuckets - 2: "16383", NumBuckets - 1: "+Inf"}
	for i, want := range cases {
		if got := BucketLabel(i); got != want {
			t.Fatalf("BucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
	// Boundary behavior of bucketOf: upper bound is inclusive.
	if bucketOf(3) != 2 || bucketOf(4) != 3 || bucketOf(1<<40) != NumBuckets-1 {
		t.Fatalf("bucketOf boundaries wrong: %d %d %d", bucketOf(3), bucketOf(4), bucketOf(1<<40))
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRecorder(16)
	r.SetComponentName(1, "ramfs")
	r.RecordRecovery(MechG0, 1, 2, FnOf("twritep"), 42, 3, 7, 2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v\n%s", err, buf.String())
	}
	for _, want := range []string{`"mechanism": "G0"`, `"kind": "RebuildWalk"`, `"ramfs"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON export missing %s:\n%s", want, buf.String())
		}
	}
}

func TestSteadyStateRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(256)
	// Warm up: touch the component slot once so the growth path is done.
	r.RecordInvoke(3, 1, "fn", 0, 0)
	allocs := testing.AllocsPerRun(500, func() {
		r.RecordInvoke(3, 1, "fn", 1, 0)
		r.RecordRecovery(MechR0, 3, 1, FnOf("fn"), 2, 1, 4, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// refRing is the recorder's former ring, preallocated at full capacity
// and indexed by cap: the reference the on-demand ring must match event
// for event.
type refRing struct {
	ring []Event
	seq  uint64
}

func newRefRing(size int) *refRing { return &refRing{ring: make([]Event, 0, size)} }

func (r *refRing) push(ev Event) {
	r.seq++
	ev.Seq = r.seq
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[int((r.seq-1)%uint64(cap(r.ring)))] = ev
	}
}

// events returns the ring contents oldest first and the dropped count.
func (r *refRing) events() ([]Event, uint64) {
	if len(r.ring) < cap(r.ring) || r.seq <= uint64(len(r.ring)) {
		return append([]Event(nil), r.ring...), 0
	}
	c := uint64(cap(r.ring))
	var out []Event
	for s := r.seq - c + 1; s <= r.seq; s++ {
		out = append(out, r.ring[(s-1)%c])
	}
	return out, r.seq - c
}

// recordBoth feeds n distinguishable invoke events, numbered from first,
// to the recorder and the reference ring.
func recordBoth(r *Recorder, ref *refRing, first, n int) {
	for i := first; i < first+n; i++ {
		ev := Event{Kind: EvInvoke, Comp: int32(1 + i%5), Thread: 1, Fn: FnOf("fn"), Time: int64(i), Gen: uint64(i)}
		r.Record(ev)
		ref.push(ev)
	}
}

// checkAgainstRef compares the recorder's snapshot events and dropped
// count with the reference ring's.
func checkAgainstRef(t *testing.T, label string, r *Recorder, ref *refRing) {
	t.Helper()
	snap := r.Snapshot()
	want, dropped := ref.events()
	if snap.DroppedEvents != dropped {
		t.Errorf("%s: DroppedEvents = %d, want %d", label, snap.DroppedEvents, dropped)
	}
	if len(snap.Events) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(snap.Events), len(want))
	}
	for i := range want {
		if snap.Events[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, snap.Events[i], want[i])
		}
	}
}

// TestOnDemandRingMatchesPreallocated: below, at, and well past its
// capacity, the on-demand ring yields the same events (sequence numbers,
// order, payloads) and the same dropped count as a preallocated ring.
func TestOnDemandRingMatchesPreallocated(t *testing.T) {
	const size = 16
	for _, k := range []int{0, 1, size - 1, size, size + 1, 2*size + 3} {
		r, ref := NewRecorder(size), newRefRing(size)
		recordBoth(r, ref, 0, k)
		checkAgainstRef(t, fmt.Sprintf("k=%d", k), r, ref)
	}
}

// TestResetAfterWrap: Reset on a wrapped ring starts a fresh stream on
// the grown storage, and the stream wraps again exactly like a new ring.
func TestResetAfterWrap(t *testing.T) {
	const size = 16
	r := NewRecorder(size)
	recordBoth(r, newRefRing(size), 0, 2*size+3)
	r.Reset()
	if r.TotalEvents() != 0 || len(r.Snapshot().Events) != 0 {
		t.Fatal("Reset left events behind")
	}
	for _, k := range []int{size / 2, size, 2*size + 3} {
		r.Reset()
		ref := newRefRing(size)
		recordBoth(r, ref, 1000, k)
		checkAgainstRef(t, fmt.Sprintf("after reset, k=%d", k), r, ref)
	}
}

// TestNewRecorderIsCheap: a recorder allocates no ring up front, so its
// construction cost is small and independent of its capacity.
func TestNewRecorderIsCheap(t *testing.T) {
	const n = 100
	for _, capacity := range []int{DefaultCapacity, 64 * DefaultCapacity} {
		keep := make([]*Recorder, 0, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			keep = append(keep, NewRecorder(capacity))
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
			t.Errorf("NewRecorder(%d) allocates %d B, want < 1 KB", capacity, per)
		}
		runtime.KeepAlive(keep)
	}
}

// BenchmarkRecordInvoke times recording one invocation event, as a
// traced kernel does on every invocation: "bound" passes the interned
// function, as the kernel's invocation path does, and "name" passes the
// name, which RecordInvoke interns per call. The ring holds 256 events,
// a few trials' worth, so it stays in cache as a trial's ring does.
func BenchmarkRecordInvoke(b *testing.B) {
	r := NewRecorder(256)
	for comp := int32(1); comp <= 6; comp++ {
		r.SetComponentName(comp, fmt.Sprint("comp", comp))
	}
	id := FnOf("lock_take")
	b.Run("bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.RecordInvokeFn(int32(1+i%6), 1, id, int64(i), 1)
		}
	})
	b.Run("name", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.RecordInvoke(int32(1+i%6), 1, "lock_take", int64(i), 1)
		}
	})
}
