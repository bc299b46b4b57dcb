package main

import (
	"bytes"
	"runtime"
	"strconv"
	"time"
)

// The host-speed probe. The shared host this benchmark was built on runs
// in phases that change the speed of the web and SWIFI workloads by up to
// ±40% over minutes (README.md, "Noise"). A tight integer loop hardly sees
// them; work that allocates, hashes and copies small byte slices sees them
// as much as the workloads do. The probe is such work, and it is
// benchmark code: no commit of the program changes it. measure runs it
// between repetitions and scales each timing metric by the host speed it
// finds, so a run reports what the program would do on a host of nominal
// speed, and the raw values are printed beside the scaled ones.

// probeNominal is the probe rate, in iterations per second, that defines
// host speed 1: a round figure the probe reached on a 2-vCPU Intel Xeon
// guest at 2.1 GHz with Go 1.24, where later runs measured host speeds of
// 1.00 to 1.94. Changing it, or the probe, rescales every timing metric.
const probeNominal = 6.0e6

// probeIterations keeps one probe at about 40 ms at nominal speed.
const probeIterations = 300000

// probeRate runs the probe once and returns its rate in iterations per
// second. Each iteration parses the path out of a small HTTP request, looks
// the body up in a map, and formats a freshly allocated response: the kind
// of work the web request path does, without any of the program's code.
func probeRate() float64 {
	paths := []string{"/index.html", "/docs/a.html", "/blog/b.html", "/f1.html", "/f2.html", "/f3.html", "/x/y.html", "/z.html"}
	bodies := make(map[string][]byte, len(paths))
	reqs := make([][]byte, len(paths))
	for i, p := range paths {
		bodies[p] = bytes.Repeat([]byte{'a' + byte(i)}, 40*(i+1))
		reqs[i] = []byte("GET " + p + " HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")
	}
	// The last few responses stay reachable until the probe returns, so
	// none is optimized away; after it returns they are all garbage, and
	// the GC before the next repetition frees them, so the probe leaves no
	// live objects to fragment the program's heap or raise its peak RSS.
	ring := make([][]byte, 16)
	t0 := time.Now()
	for i := 0; i < probeIterations; i++ {
		r := reqs[i%len(reqs)]
		sp := bytes.IndexByte(r, ' ')
		end := bytes.IndexByte(r[sp+1:], ' ')
		body := bodies[string(r[sp+1:sp+1+end])]
		resp := make([]byte, 0, len(body)+64)
		resp = append(resp, "HTTP/1.1 200 OK\r\nContent-Length: "...)
		resp = strconv.AppendInt(resp, int64(len(body)), 10)
		resp = append(resp, "\r\n\r\n"...)
		resp = append(resp, body...)
		ring[i%len(ring)] = resp
	}
	elapsed := time.Since(t0)
	if len(ring[0]) == 0 {
		panic("host-speed probe formatted an empty response")
	}
	return probeIterations / elapsed.Seconds()
}

// hostSpeed returns the host's current speed relative to nominal (1 means
// the probe ran at probeNominal), measured from a collected heap so the
// probe's own GC work is the same every time.
func hostSpeed() float64 {
	runtime.GC()
	return probeRate() / probeNominal
}

// atNominal scales a metric measured at host speed s to nominal speed. A
// slow host (s < 1) stretches times and cuts rates, so a time is
// multiplied by s (scale +1), a rate divided by s (scale -1), and a count
// or size kept (scale 0).
func atNominal(v float64, scale int, s float64) float64 {
	switch scale {
	case 1:
		return v * s
	case -1:
		return v / s
	}
	return v
}
