package experiments

import (
	"fmt"
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

func TestFig6aSmall(t *testing.T) {
	rows, err := Fig6a(500)
	if err != nil {
		t.Fatalf("Fig6a: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d; want 6", len(rows))
	}
	for _, r := range rows {
		if r.BaseUS <= 0 || r.C3US <= 0 || r.SGUS <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Service, r)
		}
		// Tracking costs something: for the invocation-bound services,
		// stubs should not be cheaper than raw invocations by more than
		// noise. (timer/sched iterations are dominated by scheduling, not
		// tracking, and are too noisy at this small sample size.) The
		// medians are compared, not the means: one slow base sample
		// among 500 moves the mean past this factor.
		switch r.Service {
		case "timer", "sched":
			continue
		}
		if r.SGMedianUS < r.BaseMedianUS*0.4 {
			t.Errorf("%s: SuperGlue median faster than base by >2.5x (%.3f vs %.3f µs); measurement broken?",
				r.Service, r.SGMedianUS, r.BaseMedianUS)
		}
	}
	var sb strings.Builder
	RenderFig6a(&sb, rows)
	if !strings.Contains(sb.String(), "Fig 6(a)") {
		t.Error("renderer missing header")
	}
}

func TestFig6bSmall(t *testing.T) {
	rows, err := Fig6b(20)
	if err != nil {
		t.Fatalf("Fig6b: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d; want 6", len(rows))
	}
	for _, r := range rows {
		if len(r.Mechanisms) < 2 {
			t.Errorf("%s: mechanism set %v too small", r.Service, r.Mechanisms)
		}
	}
	var sb strings.Builder
	RenderFig6b(&sb, rows)
	if !strings.Contains(sb.String(), "recovery overhead") {
		t.Error("renderer missing header")
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
