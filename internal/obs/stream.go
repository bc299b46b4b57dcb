package obs

import "slices"

// Stream is a campaign's rolling event stream: the rings of many
// recorders appended in order and numbered contiguously, as Merge numbers
// them, in a ring that keeps the most recent capacity events. It is the
// event half of folding trials, Absorb the aggregate half. A Snapshot
// merged from the same recorders and trimmed to capacity holds exactly
// Events(), with the same sequence numbers, but the stream never holds
// more than capacity events and never copies the ones it keeps.
type Stream struct {
	ring []Event // at most size events; the oldest sits at head
	head int
	size int
	last uint64 // Seq of the newest event: the number ever appended
}

// NewStream returns a stream of the given capacity that continues
// events, a stream already trimmed to at most capacity events (as a
// campaign checkpoint holds it), keeping their sequence numbers. The
// stream copies events and never writes to the caller's slice.
func NewStream(capacity int, events []Event) *Stream {
	if len(events) > capacity {
		events = events[len(events)-capacity:]
	}
	w := &Stream{size: capacity}
	if n := len(events); n > 0 {
		w.ring = append(make([]Event, 0, min(capacity, max(n, 64))), events...)
		w.last = events[n-1].Seq
	}
	return w
}

// Append adds r's ring, oldest first, numbering its events on from the
// newest event already in the stream. Once the stream holds capacity
// events, each appended event overwrites the oldest. r is only read.
func (w *Stream) Append(r *Recorder) {
	if r == nil {
		return
	}
	older, newer := ringHalves(r.ring, r.size, r.seq)
	w.push(older)
	w.push(newer)
}

// push appends evs in order, copying them in runs that end where the
// ring's storage or its wrap point does, and numbers the copies.
func (w *Stream) push(evs []Event) {
	for len(evs) > 0 {
		var dst []Event
		if len(w.ring) < w.size {
			if len(w.ring) == cap(w.ring) {
				w.grow()
			}
			start := len(w.ring)
			w.ring = append(w.ring, evs[:min(len(evs), cap(w.ring)-start)]...)
			dst = w.ring[start:]
		} else {
			dst = w.ring[w.head : w.head+min(len(evs), w.size-w.head)]
			copy(dst, evs)
			if w.head += len(dst); w.head == w.size {
				w.head = 0
			}
		}
		for i := range dst {
			w.last++
			dst[i].Seq = w.last
		}
		evs = evs[len(dst):]
	}
}

// grow doubles the ring's storage, up to the stream's capacity, so a
// stream that fills costs at most twice its final size in allocation.
func (w *Stream) grow() {
	grown := make([]Event, len(w.ring), min(w.size, max(2*cap(w.ring), 64)))
	copy(grown, w.ring)
	w.ring = grown
}

// Events returns the stream's events, oldest first. It rotates the ring
// in place and returns it, so the slice is valid until the next Append.
func (w *Stream) Events() []Event {
	if w.head > 0 {
		slices.Reverse(w.ring[:w.head])
		slices.Reverse(w.ring[w.head:])
		slices.Reverse(w.ring)
		w.head = 0
	}
	return w.ring
}
