package storage

import (
	"bytes"
	"errors"
	"testing"

	"superglue/internal/kernel"
)

// checkpointImages returns real checkpoint images: those the replicas of
// a populated store capture at a low checkpoint trigger (creators with
// metadata, a remap link, slice lists, and a slice list truncated to
// nothing), plus the image of an empty state.
func checkpointImages(t testing.TB) [][]byte {
	s, cm := newReplicatedStore(3)
	s.SetCheckpointEvery(4)
	imgs := [][]byte{newRepState().encodeInto(nil)}
	capture := func() {
		if cp := s.reps[0].cp; cp != nil {
			imgs = append(imgs, append([]byte(nil), cp.img...))
		}
	}
	populate(t, s, cm)
	capture()
	s.Truncate(testClass, 2, 0)
	s.RecordCreator(testClass, 7, -3, nil)
	s.Remap(testClass, 6, 8)
	s.Resolve(testClass, 1) // path-compresses the 1→6→8 chain
	for i := 0; i < 4; i++ {
		s.Drop(testClass, 5)
	}
	capture()
	return imgs
}

// FuzzCheckpointImage drives the checkpoint image decoder with arbitrary
// bytes (run with `go test -fuzz=FuzzCheckpointImage ./internal/storage`).
// It must never panic, must reject a bad image with an *imageError, and
// must accept only canonical images: re-encoding a decoded image
// reproduces it byte for byte.
func FuzzCheckpointImage(f *testing.F) {
	for _, img := range checkpointImages(f) {
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, img []byte) {
		st, err := decodeState(img)
		if err != nil {
			var ie *imageError
			if !errors.As(err, &ie) {
				t.Fatalf("decode error %v (%T); want *imageError", err, err)
			}
			return
		}
		if got := st.encodeInto(nil); !bytes.Equal(got, img) {
			t.Fatalf("re-encoded image differs:\n got %x\nwant %x", got, img)
		}
	})
}

// FuzzOpenFrame drives the sealed-frame reader with arbitrary bytes (run
// with `go test -fuzz=FuzzOpenFrame ./internal/storage`). It must never
// panic, and every frame it accepts must re-seal to the same bytes.
func FuzzOpenFrame(f *testing.F) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte("the campaign checkpoint payload")} {
		f.Add(SealFrame(payload))
	}
	for _, img := range checkpointImages(f) {
		frame := SealFrame(img)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := OpenFrame(data)
		if err != nil {
			return
		}
		if got := SealFrame(payload); !bytes.Equal(got, data) {
			t.Fatalf("accepted frame re-seals differently:\n got %x\nwant %x", got, data)
		}
	})
}

// TestCheckpointImageRejectsDamage pins the decoder on real images: each
// decodes and re-encodes to itself, every proper prefix is rejected as
// an *imageError, and so is trailing garbage.
func TestCheckpointImageRejectsDamage(t *testing.T) {
	for _, img := range checkpointImages(t) {
		st, err := decodeState(img)
		if err != nil {
			t.Fatalf("real image rejected: %v", err)
		}
		if !bytes.Equal(st.encodeInto(nil), img) {
			t.Fatal("real image does not re-encode to itself")
		}
		var ie *imageError
		for n := 0; n < len(img); n++ {
			if _, err := decodeState(img[:n]); !errors.As(err, &ie) {
				t.Fatalf("%d-byte prefix of a %d-byte image: err %v; want *imageError", n, len(img), err)
			}
		}
		if _, err := decodeState(append(append([]byte(nil), img...), 0)); !errors.As(err, &ie) {
			t.Fatalf("trailing byte: err %v; want *imageError", err)
		}
	}
}

// walReplica returns a store that populate filled at a checkpoint
// trigger of 8, then truncated, dropped and removed from, and its first
// replica: a checkpoint image plus a six-record WAL, one record of each
// type.
func walReplica(t testing.TB) (*Store, *replica) {
	s, cm := newReplicatedStore(3)
	s.SetCheckpointEvery(8)
	populate(t, s, cm)
	s.Truncate(testClass, 3, 2)
	s.Drop(testClass, 4)
	s.RemoveCreator(testClass, 5)
	r := s.reps[0]
	if r.cp == nil || len(r.wal) != 6 {
		t.Fatalf("replica has checkpoint %v and %d WAL records; want one and 6", r.cp != nil, len(r.wal))
	}
	return s, r
}

// flipBit flips bit (mod width) of *p.
func flipBit[T ~int | ~int32 | ~int64 | ~uint8 | ~uint32](p *T, width, bit uint8) {
	*p ^= T(1) << (bit % width)
}

// damage flips one bit of one of rec's encoded fields or of its
// checksum. A record without metadata takes the metadata pick on its
// checksum.
func damage(rec *walRecord, field, bit uint8) {
	switch field % 13 {
	case 0:
		flipBit(&rec.op, 8, bit)
	case 1:
		flipBit(&rec.class, 32, bit)
	case 2:
		flipBit(&rec.id, 64, bit)
	case 3:
		flipBit(&rec.now, 64, bit)
	case 4:
		flipBit(&rec.creator, 32, bit)
	case 5:
		if len(rec.meta) == 0 {
			flipBit(&rec.sum, 32, bit)
			return
		}
		flipBit(&rec.meta[int(bit)%len(rec.meta)], 64, bit)
	case 6:
		flipBit(&rec.slice.Offset, 64, bit)
	case 7:
		flipBit(&rec.slice.Length, 64, bit)
	case 8:
		flipBit(&rec.slice.Cbuf, 64, bit)
	case 9:
		flipBit(&rec.slice.CbufOff, 64, bit)
	case 10:
		flipBit(&rec.slice.Sum, 32, bit)
	case 11:
		flipBit(&rec.size, 64, bit)
	case 12:
		flipBit(&rec.sum, 32, bit)
	}
}

// FuzzWALReplay damages WAL records of a real replica and rebuilds it
// (run with `go test -fuzz=FuzzWALReplay ./internal/storage`). Each
// three bytes of the input pick a record, a field and a bit to flip.
// restore must never panic. With no record damaged it replays the whole
// log cleanly; otherwise it must stop at the first damaged record i with
// restoreCorrupt, holding the checkpoint plus records [0, i) replayed.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	for rec := uint8(0); rec < 6; rec++ {
		f.Add([]byte{rec, 12, 0})
		f.Add([]byte{rec, rec * 2, 63, 5, 5, 1})
	}
	f.Fuzz(func(t *testing.T, picks []byte) {
		s, r := walReplica(t)
		clean := make([]walRecord, len(r.wal))
		for i, rec := range r.wal {
			rec.meta = append([]kernel.Word(nil), rec.meta...)
			clean[i] = rec
		}
		for ; len(picks) >= 3; picks = picks[3:] {
			i := int(picks[0]) % len(r.wal)
			r.wal[i].meta = append([]kernel.Word(nil), r.wal[i].meta...)
			damage(&r.wal[i], picks[1], picks[2])
		}
		// The first damaged record: a bit flipped twice is intact again.
		first := 0
		for first < len(r.wal) && r.wal[first].sum == clean[first].sum &&
			bytes.Equal(r.wal[first].encode(nil), clean[first].encode(nil)) {
			first++
		}

		want, err := r.cp.open()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		ref := &replica{state: want}
		for i := range clean[:first] {
			ref.apply(&clean[i], s.cm, s.self)
		}

		r.crash()
		res, n := r.restore(s.cm, s.self)
		wantRes := restoreCorrupt
		if first == len(r.wal) {
			wantRes = restoreClean
		}
		if res != wantRes || n != first {
			t.Fatalf("restore = (%v, %d); want (%v, %d)", res, n, wantRes, first)
		}
		if got, want := r.state.encodeInto(nil), ref.state.encodeInto(nil); !bytes.Equal(got, want) {
			t.Fatalf("restored state after %d records:\n got %x\nwant %x", n, got, want)
		}
	})
}
