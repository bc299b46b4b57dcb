package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
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

func TestTable2Small(t *testing.T) {
	results, err := Table2(20, 7, 2)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d; want 6", len(results))
	}
	var sb strings.Builder
	RenderTable2(&sb, results)
	out := sb.String()
	for _, svc := range serviceRows {
		if !strings.Contains(out, svc.name) {
			t.Errorf("rendered table missing %s", svc.name)
		}
	}
}

func TestFig7Small(t *testing.T) {
	res, err := Fig7(Fig7Config{Requests: 400, Repeats: 2, Workers: 2, FaultEvery: 100})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(res.Rows) != 5 || len(res.Ratios) != 4 || res.Rounds != 2 {
		t.Fatalf("%d rows, %d ratios, %d rounds; want 5, 4, 2", len(res.Rows), len(res.Ratios), res.Rounds)
	}
	for _, r := range res.Rows {
		if r.MedianRPS <= 0 || r.MinRPS > r.MedianRPS || r.MedianRPS > r.MaxRPS {
			t.Errorf("%s: median %.0f outside [%.0f, %.0f] or non-positive", r.Label, r.MedianRPS, r.MinRPS, r.MaxRPS)
		}
	}
	for _, q := range res.Ratios {
		if q.Median <= 0 || q.Min > q.Median || q.Median > q.Max || q.Paper <= 0 {
			t.Errorf("%s: ratio median %.3f outside [%.3f, %.3f], paper %.3f", q.Label, q.Median, q.Min, q.Max, q.Paper)
		}
	}
	if res.Rows[4].Faults == 0 {
		t.Error("with-faults row injected no faults")
	}
	// FaultEvery 0 takes the default period, Requests/10: the with-faults
	// row still crashes.
	dflt, err := Fig7(Fig7Config{Requests: 400, Repeats: 1, Workers: 2, FaultEvery: 0})
	if err != nil {
		t.Fatalf("Fig7 with FaultEvery 0: %v", err)
	}
	if dflt.Rows[4].Faults == 0 {
		t.Error("FaultEvery 0: with-faults row injected no faults")
	}
	// Shape: the plain baseline beats the component substrate in every
	// round.
	if q := res.Ratios[0]; q.Max >= 1 {
		t.Errorf("%s reached %.3f; the plain loop should win every round", q.Label, q.Max)
	}
	var sb strings.Builder
	RenderFig7(&sb, res)
	RenderFig7Timeline(&sb, res)
	if !strings.Contains(sb.String(), "Fig 7") || !strings.Contains(sb.String(), "paper") {
		t.Error("renderer missing header or ratio table")
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
