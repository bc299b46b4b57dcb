package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"superglue/internal/cbuf"
	"superglue/internal/kernel"
)

const testClass Class = 1

func newStore() (*Store, *cbuf.Manager) {
	cm := cbuf.NewManager(0)
	s := New(cm)
	s.Attach(kernel.ComponentID(42))
	return s, cm
}

func TestCreatorRecordRoundTrip(t *testing.T) {
	s, _ := newStore()
	s.RecordCreator(testClass, 7, 3, []kernel.Word{10, 20})
	rec, ok := s.LookupCreator(testClass, 7)
	if !ok {
		t.Fatal("LookupCreator: not found")
	}
	if rec.Creator != 3 || len(rec.Meta) != 2 || rec.Meta[0] != 10 || rec.Meta[1] != 20 {
		t.Fatalf("record = %+v; want creator 3, meta [10 20]", rec)
	}
}

func TestCreatorMetaIsCopied(t *testing.T) {
	s, _ := newStore()
	meta := []kernel.Word{1, 2}
	s.RecordCreator(testClass, 1, 1, meta)
	meta[0] = 99
	rec, _ := s.LookupCreator(testClass, 1)
	if rec.Meta[0] != 1 {
		t.Fatal("stored meta aliases caller slice: copy-at-boundary violated")
	}
}

func TestRemoveCreator(t *testing.T) {
	s, _ := newStore()
	s.RecordCreator(testClass, 7, 3, nil)
	s.RemoveCreator(testClass, 7)
	if _, ok := s.LookupCreator(testClass, 7); ok {
		t.Fatal("creator still present after RemoveCreator")
	}
}

func TestClassesAreDisjoint(t *testing.T) {
	s, _ := newStore()
	s.RecordCreator(1, 7, 3, nil)
	if _, ok := s.LookupCreator(2, 7); ok {
		t.Fatal("descriptor visible under the wrong class")
	}
}

func TestRemapAndResolve(t *testing.T) {
	s, _ := newStore()
	if got := s.Resolve(testClass, 5); got != 5 {
		t.Fatalf("unmapped Resolve = %d; want identity 5", got)
	}
	s.Remap(testClass, 5, 8)
	if got := s.Resolve(testClass, 5); got != 8 {
		t.Fatalf("Resolve after remap = %d; want 8", got)
	}
	// A second fault remaps again; chains must resolve to the newest.
	s.Remap(testClass, 8, 13)
	if got := s.Resolve(testClass, 5); got != 13 {
		t.Fatalf("chained Resolve = %d; want 13", got)
	}
}

func TestRemapIdentityIgnored(t *testing.T) {
	s, _ := newStore()
	s.Remap(testClass, 4, 4)
	if got := s.Resolve(testClass, 4); got != 4 {
		t.Fatalf("Resolve = %d; want 4", got)
	}
}

func writeCbuf(t testing.TB, cm *cbuf.Manager, owner cbuf.ComponentID, data []byte) cbuf.ID {
	t.Helper()
	id, err := cm.Alloc(owner, len(data))
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := cm.Write(id, owner, 0, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return id
}

func TestSaveAndReadAll(t *testing.T) {
	s, cm := newStore()
	b := writeCbuf(t, cm, 9, []byte("hello world"))
	if err := s.SaveSlice(testClass, 1, 0, b, 0, 11); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	got, err := s.ReadAll(testClass, 1)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("ReadAll = %q; want hello world", got)
	}
}

func TestReadAllOverlappingNewestWins(t *testing.T) {
	s, cm := newStore()
	b1 := writeCbuf(t, cm, 9, []byte("aaaa"))
	b2 := writeCbuf(t, cm, 9, []byte("bb"))
	if err := s.SaveSlice(testClass, 1, 0, b1, 0, 4); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	if err := s.SaveSlice(testClass, 1, 1, b2, 0, 2); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	got, err := s.ReadAll(testClass, 1)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "abba" {
		t.Fatalf("ReadAll = %q; want abba (newer slice overlays older)", got)
	}
}

func TestReadAllSparseZeroFills(t *testing.T) {
	s, cm := newStore()
	b := writeCbuf(t, cm, 9, []byte("x"))
	if err := s.SaveSlice(testClass, 1, 3, b, 0, 1); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	got, err := s.ReadAll(testClass, 1)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 'x'}) {
		t.Fatalf("ReadAll = %v; want zero-filled prefix then x", got)
	}
}

func TestReadAllNotFound(t *testing.T) {
	s, _ := newStore()
	if _, err := s.ReadAll(testClass, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAll err = %v; want ErrNotFound", err)
	}
}

func TestTruncate(t *testing.T) {
	s, cm := newStore()
	b := writeCbuf(t, cm, 9, []byte("abcdef"))
	if err := s.SaveSlice(testClass, 1, 0, b, 0, 6); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	s.Truncate(testClass, 1, 3)
	got, err := s.ReadAll(testClass, 1)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "abc" {
		t.Fatalf("after Truncate(3), ReadAll = %q; want abc", got)
	}
	s.Truncate(testClass, 1, 0)
	if s.HasData(testClass, 1) {
		t.Fatal("HasData after Truncate(0); want none")
	}
}

func TestDrop(t *testing.T) {
	s, cm := newStore()
	b := writeCbuf(t, cm, 9, []byte("z"))
	if err := s.SaveSlice(testClass, 1, 0, b, 0, 1); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	s.Drop(testClass, 1)
	if s.HasData(testClass, 1) {
		t.Fatal("HasData after Drop")
	}
}

func TestCreatorsEnumeration(t *testing.T) {
	s, _ := newStore()
	for _, id := range []kernel.Word{5, 1, 3} {
		s.RecordCreator(testClass, id, 2, nil)
	}
	s.RecordCreator(2, 9, 2, nil) // other class; excluded
	got := s.Creators(testClass)
	want := []kernel.Word{1, 3, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Creators = %v; want %v", got, want)
	}
}

// TestChecksumSurvivesTruncate checks that Truncate re-checksums the
// trimmed extent: a shortened prefix must still read back clean.
func TestChecksumSurvivesTruncate(t *testing.T) {
	s, cm := newStore()
	b := writeCbuf(t, cm, 9, []byte("abcdef"))
	if err := s.SaveSlice(testClass, 1, 0, b, 0, 6); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	s.Truncate(testClass, 1, 4)
	got, err := s.ReadAll(testClass, 1)
	if err != nil {
		t.Fatalf("ReadAll after Truncate: %v", err)
	}
	if string(got) != "abcd" {
		t.Fatalf("ReadAll = %q; want abcd", got)
	}
	if n := s.CorruptionsDetected(); n != 0 {
		t.Fatalf("CorruptionsDetected = %d after honest truncate; want 0", n)
	}
}

func TestCorruptOneDetectedByReadAll(t *testing.T) {
	s, cm := newStore()
	b1 := writeCbuf(t, cm, 9, []byte("first"))
	b2 := writeCbuf(t, cm, 9, []byte("second"))
	if err := s.SaveSlice(testClass, 1, 0, b1, 0, 5); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}
	if err := s.SaveSlice(testClass, 2, 0, b2, 0, 6); err != nil {
		t.Fatalf("SaveSlice: %v", err)
	}

	victim, ok := s.CorruptOne(testClass, 0)
	if !ok {
		t.Fatal("CorruptOne found no extents")
	}
	if victim != 1 {
		t.Fatalf("CorruptOne victim = %d; want resource 1 (lowest ID, pick 0)", victim)
	}
	if _, err := s.ReadAll(testClass, victim); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("ReadAll(corrupted) err = %v; want ErrCorrupted", err)
	}
	if n := s.CorruptionsDetected(); n != 1 {
		t.Fatalf("CorruptionsDetected = %d; want 1", n)
	}
	// The other resource is untouched.
	if _, err := s.ReadAll(testClass, 2); err != nil {
		t.Fatalf("ReadAll(clean sibling): %v", err)
	}

	// pick wraps modulo the extent population and negative picks take the
	// absolute value, so any seed-derived integer is a valid selector.
	if v2, ok := s.CorruptOne(testClass, 3); !ok || v2 != 2 {
		t.Fatalf("CorruptOne(pick=3) = %d,%v; want resource 2 (wraps to second extent)", v2, ok)
	}
	if v3, ok := s.CorruptOne(testClass, -3); !ok || v3 != 2 {
		t.Fatalf("CorruptOne(pick=-3) = %d,%v; want resource 2 (abs value)", v3, ok)
	}
}

func TestCorruptOneEmptyClass(t *testing.T) {
	s, _ := newStore()
	if _, ok := s.CorruptOne(testClass, 0); ok {
		t.Fatal("CorruptOne reported success on a class with no data")
	}
	// Creator records without saved slices are not corruptible either.
	s.RecordCreator(testClass, 1, 2, nil)
	if _, ok := s.CorruptOne(testClass, 5); ok {
		t.Fatal("CorruptOne reported success with creators but no extents")
	}
}

func TestInvalidSliceRejected(t *testing.T) {
	s, cm := newStore()
	b := writeCbuf(t, cm, 9, []byte("x"))
	if err := s.SaveSlice(testClass, 1, -1, b, 0, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := s.SaveSlice(testClass, 1, 0, cbuf.ID(999), 0, 1); err == nil {
		t.Fatal("dangling cbuf reference accepted")
	}
}

// TestDispatchThroughKernel drives the storage component through real kernel
// invocations.
func TestDispatchThroughKernel(t *testing.T) {
	cm := cbuf.NewManager(0)
	st := New(cm)
	comp := NewComponent(st)
	k := kernel.New()
	id := k.MustRegister(func() kernel.Service { return comp })
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		if _, err := k.Invoke(th, id, FnRecordCreator, 1, 7, 3, 10); err != nil {
			t.Errorf("record_creator: %v", err)
		}
		if got, err := k.Invoke(th, id, FnResolve, 1, 7); err != nil || got != 7 {
			t.Errorf("resolve = (%d, %v); want (7, nil)", got, err)
		}
		if _, err := k.Invoke(th, id, FnRemap, 1, 7, 9); err != nil {
			t.Errorf("remap: %v", err)
		}
		if got, err := k.Invoke(th, id, FnResolve, 1, 7); err != nil || got != 9 {
			t.Errorf("resolve after remap = (%d, %v); want (9, nil)", got, err)
		}
		if _, err := k.Invoke(th, id, "st_bogus"); err == nil {
			t.Error("bogus function dispatched")
		}
		if _, err := k.Invoke(th, id, FnRemap, 1); err == nil {
			t.Error("short arg list accepted")
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Remap moved the creator record under the new ID.
	rec, ok := st.LookupCreator(1, 9)
	if !ok || rec.Creator != 3 || len(rec.Meta) != 1 || rec.Meta[0] != 10 {
		t.Fatalf("record = (%+v, %v); want creator 3 meta [10] under remapped id 9", rec, ok)
	}
	if _, ok := st.LookupCreator(1, 7); ok {
		t.Fatal("creator record still present under stale id 7")
	}
}

// TestSliceRoundTripProperty: random sequences of writes reassemble to the
// same bytes a plain in-memory file would hold.
func TestSliceRoundTripProperty(t *testing.T) {
	prop := func(chunks [][]byte, offs []uint8) bool {
		s, cm := newStore()
		model := make([]byte, 0, 512)
		n := len(chunks)
		if len(offs) < n {
			n = len(offs)
		}
		wrote := false
		for i := 0; i < n; i++ {
			data := chunks[i]
			if len(data) == 0 {
				continue
			}
			off := int(offs[i])
			b, err := cm.Alloc(9, len(data))
			if err != nil {
				return false
			}
			if err := cm.Write(b, 9, 0, data); err != nil {
				return false
			}
			if err := s.SaveSlice(testClass, 1, off, b, 0, len(data)); err != nil {
				return false
			}
			if end := off + len(data); end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[off:], data)
			wrote = true
		}
		if !wrote {
			return true
		}
		got, err := s.ReadAll(testClass, 1)
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveCompressesChains: after resolution, every link on a remap
// chain points directly at the root, keeping stale-ID translation O(1)
// across many faults.
func TestResolveCompressesChains(t *testing.T) {
	s, _ := newStore()
	for i := kernel.Word(1); i < 50; i++ {
		s.Remap(testClass, i, i+1)
	}
	if got := s.Resolve(testClass, 1); got != 50 {
		t.Fatalf("Resolve(1) = %d; want 50", got)
	}
	// The chain is now flat: a direct second hop resolves immediately.
	direct := s.reps[0].state.remap[key{testClass, 1}]
	if direct != 50 {
		t.Fatalf("chain not compressed: remap[1] = %d; want 50", direct)
	}
}
