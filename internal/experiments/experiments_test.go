package experiments

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"superglue/internal/webserver"
)

func TestCountLOC(t *testing.T) {
	src := `
// comment only
/* block
   comment */
code line 1;  // trailing
code line 2; /* inline */

/* a */ code line 3;
`
	if got := CountLOC(src); got != 3 {
		t.Fatalf("CountLOC = %d; want 3", got)
	}
	if got := CountLOC(""); got != 0 {
		t.Fatalf("CountLOC(empty) = %d; want 0", got)
	}
}

// fig6Result is a fixed result of the named row, in ns.
func fig6Result(name string, median, lo, hi float64) BenchResult {
	return BenchResult{Name: name, Samples: 3, Iterations: 3000, MedianNsPerOp: median, MinNsPerOp: lo, MaxNsPerOp: hi, AllocsPerOp: 2}
}

// fig6Results gives every Fig. 6 row a 1 µs (0.5–4 µs) result, except
// the rows given in over.
func fig6Results(over ...BenchResult) []BenchResult {
	var out []BenchResult
	for _, e := range Fig6Benchmarks(true, true) {
		r := fig6Result(e.Name, 1000, 500, 4000)
		if i := slices.IndexFunc(over, func(o BenchResult) bool { return o.Name == e.Name }); i >= 0 {
			r = over[i]
		}
		out = append(out, r)
	}
	return out
}

// TestFig6aSmall checks Fig. 6(a)'s arithmetic on fixed results: each
// cell is its row's result, each overhead the difference of two medians,
// and a stub faster than base keeps its negative sign.
func TestFig6aSmall(t *testing.T) {
	base := fig6Result("TrackingLock/base", 2000, 1500, 9000)
	c3 := fig6Result("TrackingLock/c3", 2500, 2400, 2600)
	sg := fig6Result("TrackingLock/superglue", 1750, 1000, 1800)
	rows, err := Fig6a(fig6Results(base, c3, sg))
	if err != nil || len(rows) != len(serviceRows) {
		t.Fatalf("Fig6a: %d rows, %v", len(rows), err)
	}
	want := Fig6aRow{Service: "lock", Base: base, C3: c3, SG: sg, C3OverheadUS: 0.5, SGOverheadUS: -0.25}
	if got := rows[3]; !reflect.DeepEqual(got, want) {
		t.Errorf("lock row = %+v; want %+v", got, want)
	}
	var sb strings.Builder
	RenderFig6a(&sb, rows)
	for _, s := range []string{"of 3 interleaved rounds", "2.000 (1.500–9.000)", "-0.250", "2/2/2"} {
		if !strings.Contains(sb.String(), s) {
			t.Errorf("rendered table lacks %q:\n%s", s, sb.String())
		}
	}
	if _, err := Fig6a(fig6Results()[1:]); err == nil {
		t.Error("Fig6a with a Tracking row missing: no error")
	}
}

// TestFig6bSmall checks Fig. 6(b)'s arithmetic on fixed results: the
// overhead is the Recovery row's median less the fault-free probe's,
// which is the Tracking row for lock and, for event, the non-creator
// Probe row rather than the micro-op.
func TestFig6bSmall(t *testing.T) {
	rows, err := Fig6b(fig6Results(
		fig6Result("RecoveryLock/superglue", 3000, 2000, 5000),
		fig6Result("TrackingLock/superglue", 1250, 1000, 1500),
		fig6Result("RecoveryEvent/superglue", 9000, 8000, 12000),
		fig6Result("TrackingEvent/superglue", 500, 400, 600),
		fig6Result("ProbeEvent/superglue", 2000, 1800, 2200),
		fig6Result("ProbeEvent/c3", 1250, 1000, 1500),
	))
	if err != nil || len(rows) != len(serviceRows) {
		t.Fatalf("Fig6b: %d rows, %v", len(rows), err)
	}
	lock, event := rows[3], rows[4]
	if lock.SGOverheadUS != 1.75 || event.SGOverheadUS != 7 || event.C3OverheadUS != -0.25 || lock.C3OverheadUS != 0 {
		t.Errorf("overheads: lock %.3f/%.3f, event %.3f/%.3f µs (C³/SuperGlue); want 0/1.75, -0.25/7",
			lock.C3OverheadUS, lock.SGOverheadUS, event.C3OverheadUS, event.SGOverheadUS)
	}
	if event.SG.MaxNsPerOp != 12000 || len(event.Mechanisms) < 2 {
		t.Errorf("event row = %+v; want the RecoveryEvent/superglue result and its mechanisms", event)
	}
	var sb strings.Builder
	RenderFig6b(&sb, rows)
	for _, s := range []string{"of 3 interleaved rounds", "9.000 (8.000–12.000)", "-0.250"} {
		if !strings.Contains(sb.String(), s) {
			t.Errorf("rendered table lacks %q:\n%s", s, sb.String())
		}
	}
}

// TestFig6aStubsNotFasterThanBase runs the mm, ramfs, lock and event
// Tracking rows through the registry's runner and checks that tracking
// costs something: a SuperGlue stub cheaper than raw invocations by more
// than 2.5× means the measurement is broken. (timer and sched iterations
// are dominated by scheduling, not tracking, and too noisy for this.)
func TestFig6aStubsNotFasterThanBase(t *testing.T) {
	var rows []Bench
	for _, svc := range serviceRows[1:5] {
		names := fig6aNames(svc)
		rows = append(rows, slices.DeleteFunc(Benchmarks(), func(e Bench) bool { return e.Name != names[0] && e.Name != names[2] })...)
	}
	results, err := RunBenchmarks(rows, 1)
	if err != nil || len(results) != 8 {
		t.Fatalf("%d results, %v; want base and superglue of mm, ramfs, lock and event", len(results), err)
	}
	for i := 0; i < len(results); i += 2 {
		base, sg := results[i], results[i+1]
		if base.MedianNsPerOp <= 0 || sg.MedianNsPerOp < base.MedianNsPerOp*0.4 {
			t.Errorf("%s %.1f ns, %s %.1f ns: SuperGlue faster than base by >2.5x; measurement broken?",
				base.Name, base.MedianNsPerOp, sg.Name, sg.MedianNsPerOp)
		}
	}
}

func TestFig6c(t *testing.T) {
	rows, err := Fig6c()
	if err != nil {
		t.Fatalf("Fig6c: %v", err)
	}
	for _, r := range rows {
		// The headline claim: declarative IDL is an order of magnitude
		// smaller than the hand-written stubs it replaces.
		if r.IDLLOC <= 0 || r.IDLLOC > 60 {
			t.Errorf("%s: IDL LOC = %d; want a small declarative spec", r.Service, r.IDLLOC)
		}
		// The generated code is only the typed client over the shared
		// engine: never larger than the hand-written stub it replaces.
		if r.GeneratedLOC <= 0 || r.GeneratedLOC >= r.C3StubLOC {
			t.Errorf("%s: generated client %d LOC; want 0 < it < C³ stub %d LOC", r.Service, r.GeneratedLOC, r.C3StubLOC)
		}
		if r.C3StubLOC < 3*r.IDLLOC {
			t.Errorf("%s: hand-written C³ stub %d LOC < 3× IDL %d LOC", r.Service, r.C3StubLOC, r.IDLLOC)
		}
	}
	var sb strings.Builder
	RenderFig6c(&sb, rows)
	if !strings.Contains(sb.String(), "LOC") {
		t.Error("renderer missing header")
	}
	if n, _ := EngineLOC(); n <= 0 || !strings.Contains(sb.String(), fmt.Sprintf("is %d LOC", n)) {
		t.Errorf("renderer does not report the engine's %d LOC once", n)
	}
}

// fig7Results gives each Fig. 7 bar's WebServer row the per-round req/s
// in rps, folded by summarize as RunBenchmarks folds its rounds.
func fig7Results(rps [][]float64) []BenchResult {
	var out []BenchResult
	for i, wv := range WebVariants {
		var runs []testing.BenchmarkResult
		for _, v := range rps[i] {
			runs = append(runs, testing.BenchmarkResult{N: 1000, T: time.Millisecond, Extra: map[string]float64{"req/s": v}})
		}
		out = append(out, summarize("WebServer/"+wv.Name, runs))
	}
	return out
}

// TestFig7Small checks Fig. 7's arithmetic on fixed results over three
// rounds: each bar is its row's median req/s with the rounds' range, and
// each ratio is taken within a round before its median is taken, which
// here differs from the ratio of the two medians.
func TestFig7Small(t *testing.T) {
	rps := [][]float64{
		{1000, 2000, 4000}, // apache-like
		{900, 1500, 3800},  // composite: 0.9, 0.75, 0.95 of apache-like
		{450, 1350, 3040},  // c3: 0.5, 0.9, 0.8 of composite
		{810, 750, 3420},   // superglue: 0.9, 0.5, 0.9
		{630, 1350, 3040},  // superglue+faults: 0.7, 0.9, 0.8
	}
	res, err := Fig7(fig7Results(rps))
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(res.Rows) != 5 || len(res.Ratios) != 4 || res.Rounds != 3 {
		t.Fatalf("%d rows, %d ratios, %d rounds; want 5, 4, 3", len(res.Rows), len(res.Ratios), res.Rounds)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	wantRows := [][3]float64{{2000, 1000, 4000}, {1500, 900, 3800}, {1350, 450, 3040}, {810, 750, 3420}, {1350, 630, 3040}}
	for i, r := range res.Rows {
		w := wantRows[i]
		if r.Label != WebVariants[i].Label || !near(r.MedianRPS, w[0]) || !near(r.MinRPS, w[1]) || !near(r.MaxRPS, w[2]) || !near(r.USPerReq, 1e6/w[0]) {
			t.Errorf("row %d = %+v; want %s at %.0f (%.0f–%.0f) req/s, %.3f µs/req", i, r, WebVariants[i].Label, w[0], w[1], w[2], 1e6/w[0])
		}
	}
	// median, min, max of the per-round ratios, and the µs delta of the
	// two medians.
	wantRatios := [][4]float64{
		{0.9, 0.75, 0.95, 1e6/1500 - 1e6/2000},
		{0.8, 0.5, 0.9, 1e6/1350 - 1e6/1500},
		{0.9, 0.5, 0.9, 1e6/810 - 1e6/1500},
		{0.8, 0.7, 0.9, 1e6/1350 - 1e6/1500},
	}
	for i, q := range res.Ratios {
		w := wantRatios[i]
		if !near(q.Median, w[0]) || !near(q.Min, w[1]) || !near(q.Max, w[2]) || !near(q.DeltaUS, w[3]) || q.Paper != fig7Ratios[i].paper {
			t.Errorf("%s = %+v; want %.3f (%.3f–%.3f), %.3f µs, paper %.3f", q.Label, q, w[0], w[1], w[2], w[3], fig7Ratios[i].paper)
		}
	}
	// The paper's own req/s: a 4.9 µs substrate, SuperGlue 8.2 µs over
	// Composite.
	if sub, sg := res.Ratios[0].PaperDeltaUS, res.Ratios[2].PaperDeltaUS; math.Abs(sub-4.9) > 0.05 || math.Abs(sg-8.2) > 0.05 {
		t.Errorf("paper deltas: substrate %.3f, SuperGlue %.3f µs; want 4.9, 8.2", sub, sg)
	}
	var sb strings.Builder
	RenderFig7(&sb, res)
	RenderFig7Timeline(&sb, &webserver.Stats{Variant: webserver.VariantSuperGlue, Completed: 20, Faults: 2,
		Timeline: []webserver.BucketPoint{{Completed: 10, Elapsed: time.Millisecond}, {Completed: 20, Elapsed: 2 * time.Millisecond}}})
	for _, s := range []string{"3 interleaved rounds", "666.667", "0.900   0.750   0.950", "166.667", "2 crashes", "10000 req/s in bucket"} {
		if !strings.Contains(sb.String(), s) {
			t.Errorf("rendered figure lacks %q:\n%s", s, sb.String())
		}
	}

	if _, err := Fig7(fig7Results(rps)[1:]); err == nil {
		t.Error("Fig7 with the apache-like row missing: no error")
	}
	uneven := fig7Results(rps)
	uneven[2].Runs = uneven[2].Runs[:2]
	if _, err := Fig7(uneven); err == nil {
		t.Error("Fig7 with a row of two rounds among rows of three: no error")
	}
	decoded := fig7Results(rps)
	decoded[0].Runs = nil // as read back from BENCH_superglue.json
	if _, err := Fig7(decoded); err == nil {
		t.Error("Fig7 with a row without per-round runs: no error")
	}
}

// TestWebServerRows runs the Fig. 7 rows' server briefly: the with-faults
// bar crashes a component every n/10+1 requests, nine times in n = 400,
// and the plain loop outruns the component substrate.
func TestWebServerRows(t *testing.T) {
	st := make([]*webserver.Stats, 3)
	for i, wv := range []WebVariant{WebVariants[0], WebVariants[1], WebVariants[4]} {
		var err error
		if st[i], err = runWebServer(webserver.Config{Variant: wv.Variant}, 400, wv.Faults); err != nil {
			t.Fatalf("%s: %v", wv.Name, err)
		}
	}
	if st[2].Faults != 9 || st[2].Completed != 400 {
		t.Errorf("with faults: %d crashes, %d of 400 requests; want 9 crashes, every request", st[2].Faults, st[2].Completed)
	}
	if st[0].Throughput <= st[1].Throughput {
		t.Errorf("apache-like %.0f req/s, composite %.0f; the plain loop should win", st[0].Throughput, st[1].Throughput)
	}
}

func TestMechanisms(t *testing.T) {
	rows, err := Mechanisms()
	if err != nil {
		t.Fatalf("Mechanisms: %v", err)
	}
	byService := make(map[string]string)
	for _, r := range rows {
		byService[r.Service] = r.Mechanisms
	}
	if !strings.Contains(byService["event"], "G0") {
		t.Errorf("event mechanisms = %s; want G0", byService["event"])
	}
	if !strings.Contains(byService["mm"], "D0") {
		t.Errorf("mm mechanisms = %s; want D0", byService["mm"])
	}
	if strings.Contains(byService["lock"], "G0") {
		t.Errorf("lock mechanisms = %s; must not need G0", byService["lock"])
	}
	var sb strings.Builder
	RenderMechanisms(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty mechanisms rendering")
	}
}
