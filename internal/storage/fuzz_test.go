package storage

import (
	"bytes"
	"errors"
	"testing"
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
