package experiments

import (
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
		// smaller than both the generated code and the hand-written stubs.
		if r.IDLLOC <= 0 || r.IDLLOC > 60 {
			t.Errorf("%s: IDL LOC = %d; want a small declarative spec", r.Service, r.IDLLOC)
		}
		if r.GeneratedLOC < 5*r.IDLLOC {
			t.Errorf("%s: generated %d LOC < 5× IDL %d LOC", r.Service, r.GeneratedLOC, r.IDLLOC)
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
	for _, svc := range Services() {
		if !strings.Contains(out, svc) {
			t.Errorf("rendered table missing %s", svc)
		}
	}
}

func TestFig7Small(t *testing.T) {
	rows, err := Fig7(Fig7Config{Requests: 400, Repeats: 2, Workers: 2, FaultEvery: 100})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d; want 5", len(rows))
	}
	for _, r := range rows {
		if r.MeanRPS <= 0 {
			t.Errorf("%s: non-positive throughput", r.Label)
		}
	}
	// Shape: the plain baseline beats the component substrate, which beats
	// (or matches) the recovery variants.
	if rows[0].MeanRPS < rows[1].MeanRPS {
		t.Errorf("baseline (%.0f) slower than composite (%.0f)", rows[0].MeanRPS, rows[1].MeanRPS)
	}
	var sb strings.Builder
	RenderFig7(&sb, rows)
	RenderFig7Timeline(&sb, rows)
	if !strings.Contains(sb.String(), "Fig 7") {
		t.Error("renderer missing header")
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
