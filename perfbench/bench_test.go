package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"superglue/internal/webserver"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
	if _, err := tail(make([]float64, 999), 99); err == nil {
		t.Error("p99 of 999 samples was accepted with 9 samples beyond it")
	}
	if _, err := tail(make([]float64, 1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

func TestAtNominalScalesTimesAndRates(t *testing.T) {
	// On a host at half speed a 10 µs gap reads 20 µs and 100 req/s read 50.
	if got := atNominal(20, 1, 0.5); got != 10 {
		t.Errorf("time at half speed scaled to %g, want 10", got)
	}
	if got := atNominal(50, -1, 0.5); got != 100 {
		t.Errorf("rate at half speed scaled to %g, want 100", got)
	}
	if got := atNominal(1446, 0, 0.5); got != 1446 {
		t.Errorf("count scaled to %g, want it unchanged", got)
	}
	if s := hostSpeed(); !(s > 0) {
		t.Errorf("host speed %g, want a positive figure", s)
	}
}

// timeline builds a per-completion timeline from gaps in microseconds.
func timeline(gaps []float64) []webserver.BucketPoint {
	tl := make([]webserver.BucketPoint, len(gaps))
	var at time.Duration
	for i, g := range gaps {
		at += time.Duration(g * float64(time.Microsecond))
		tl[i] = webserver.BucketPoint{Completed: i + 1, Elapsed: at}
	}
	return tl
}

func TestGapsAndStallsSeparatesBurstStalls(t *testing.T) {
	// 450 completions, 5 µs apart, except that the first request after each
	// burst (completions 101, 201, 301, 401) waits 300 µs and the one after
	// it 40 µs. The first window and the incomplete last one are ignored.
	gaps := make([]float64, 450)
	for i := range gaps {
		gaps[i] = 5
		if i >= 100 && i%100 == 0 {
			gaps[i] = 300
		}
		if i >= 100 && i%100 == 1 {
			gaps[i] = 40
		}
	}
	g, s := gapsAndStalls(timeline(gaps), 100)
	if want := []float64{300, 300, 300}; !reflect.DeepEqual(s, want) {
		t.Fatalf("stalls = %v, want %v", s, want)
	}
	if len(g) != 3*99 {
		t.Fatalf("%d gaps, want %d", len(g), 3*99)
	}
	forty := 0
	for _, x := range g {
		switch {
		case math.Abs(x-40) < 1e-6:
			forty++
		case math.Abs(x-5) > 1e-6:
			t.Fatalf("unexpected gap %g in the gap population", x)
		}
	}
	if forty != 3 {
		t.Errorf("%d of the 40 µs gaps stayed in the gap population, want 3", forty)
	}
}

func TestSiteIsDeterministicPerSeed(t *testing.T) {
	a, b := siteFor(7), siteFor(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("siteFor(7) differs between calls")
	}
	if reflect.DeepEqual(a, siteFor(8)) {
		t.Fatal("seeds 7 and 8 generate the same site")
	}
	want := sizeMix(webserver.DefaultFiles())
	for seed := int64(1); seed <= 10; seed++ {
		site := siteFor(seed)
		if got := sizeMix(site); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: file sizes %v, want those of DefaultFiles %v", seed, got, want)
		}
		for p := range site {
			if p[0] != '/' {
				t.Fatalf("seed %d: path %q", seed, p)
			}
		}
	}
}

// sizeMix returns a site's file sizes in ascending order.
func sizeMix(files map[string][]byte) []int {
	var sizes []int
	for _, body := range files {
		sizes = append(sizes, len(body))
	}
	sort.Ints(sizes)
	return sizes
}

// tinySizes are the smallest repetitions whose stall p90 still has ten
// windows beyond it.
var tinySizes = sizes{steadyRequests: 10200, faultRequests: 10200, trials: 200, replayRequests: 5100, minReps: 1}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameNames fails unless got reports exactly the declared metrics.
func sameNames(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			t.Errorf("%s: reports %s [%s], BENCHMARK.json declares [%s]", what, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: does not report %s", what, name)
		}
	}
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e2e, _ := benchmarkSpec(t)
	for _, name := range workloads {
		res, err := measure(name, 3, 0, tinySizes, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", name, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, name, res.Metrics, e2e)
		for k, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want a positive value", name, k, m.Value)
			}
		}
	}
}

func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, layers := benchmarkSpec(t)
	spansOut := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := ledger("web-steady", 3, tinySizes, spansOut, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "traced run", res.Metrics, layers)
	if fi, err := os.Stat(spansOut); err != nil || fi.Size() == 0 {
		t.Errorf("spans were not written: %v", err)
	}
}
