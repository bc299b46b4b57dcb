package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names of the replayed web request, in call order.
const (
	spanRequest = iota
	spanParse
	spanTake
	spanLseek
	spanRead
	spanRelease
	spanRespond
	numSpanNames
)

var spanNames = [numSpanNames]string{"request", "parse", "lock.take", "ramfs.lseek", "ramfs.read", "lock.release", "respond"}

// span is one timed call: the spans of one request share req, and each
// child names its parent's index (-1 for the request's root span).
type span struct {
	req        int
	name       int
	parent     int
	start, end time.Duration // since the recorder's base
}

// spans records spans in memory; they are written out once, after the
// timed replay. A nil *spans records nothing, which is how the same replay
// code runs untraced.
type spans struct {
	base time.Time
	list []span
}

func newSpans(capacity int) *spans {
	return &spans{base: time.Now(), list: make([]span, 0, capacity)}
}

// open starts a span and returns its index.
func (s *spans) open(req, name, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{req: req, name: name, parent: parent, start: time.Since(s.base)})
	return len(s.list) - 1
}

// close ends the span at index i.
func (s *spans) close(i int) {
	if s == nil {
		return
	}
	s.list[i].end = time.Since(s.base)
}

// selfTimes returns, per span name, every span's self time in nanoseconds:
// its duration minus the part its child spans cover.
func (s *spans) selfTimes() [numSpanNames][]float64 {
	child := make([]time.Duration, len(s.list))
	for _, sp := range s.list {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	var out [numSpanNames][]float64
	for i, sp := range s.list {
		out[sp.name] = append(out[sp.name], float64(sp.end-sp.start-child[i]))
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, sp := range s.list {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Request int    `json:"request"`
			Name    string `json:"name"`
			Parent  int    `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{i, sp.req, spanNames[sp.name], sp.parent, int64(sp.start), int64(sp.end)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
