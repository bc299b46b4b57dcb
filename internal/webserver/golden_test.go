package webserver

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The counter golden: the deterministic Stats counters of Run over every
// variant × core count × injector combination that Run accepts, committed
// in testdata/run-counters.txt. A change to the request path, the dispatch
// order or an injector shows up here as a changed line. Regenerate after an
// intended change:
//
//	go test ./internal/webserver -run TestRunCountersGolden -update
var update = flag.Bool("update", false, "rewrite testdata/run-counters.txt from the current counters")

const countersGolden = "testdata/run-counters.txt"

// goldenConfigs returns the pinned configurations, 3,000 requests each.
func goldenConfigs() []Config {
	// Run accepts the crasher with a recovery variant and the burster and
	// the hangler with SuperGlue only: the composite variant runs the first
	// injector entry (none), C³ the first two, SuperGlue all four.
	injectors := []Config{
		{},
		{FaultEvery: 200},
		{CorrelatedEvery: 100, Replicas: 3},
		{HangEvery: 150, Watchdog: true},
	}
	accepted := map[Variant]int{VariantComposite: 1, VariantC3: 2, VariantSuperGlue: 4}
	var out []Config
	for _, v := range []Variant{VariantComposite, VariantC3, VariantSuperGlue} {
		for _, cores := range []int{1, 2, 4} {
			for _, in := range injectors[:accepted[v]] {
				cfg := in
				cfg.Variant, cfg.Cores, cfg.Requests = v, cores, 3000
				out = append(out, cfg)
			}
		}
	}
	return out
}

// counterLine renders one run's deterministic counters.
func counterLine(cfg Config, st *Stats) string {
	return fmt.Sprintf("%v cores=%d fault=%d corr=%d replicas=%d hang=%d: completed=%d errors=%d faults=%d bursts=%d hangs=%d degraded=%d ticks=%d migrations=%d dispatches=%d buckets=%d",
		cfg.Variant, cfg.Cores, cfg.FaultEvery, cfg.CorrelatedEvery, cfg.Replicas, cfg.HangEvery,
		st.Completed, st.Errors, st.Faults, st.CorrelatedBursts, st.Hangs, st.Degraded,
		st.VirtualTicks, st.Migrations, st.Dispatches, len(st.Timeline))
}

func TestRunCountersGolden(t *testing.T) {
	cfgs := goldenConfigs()
	if len(cfgs) != 21 {
		t.Fatalf("%d golden configurations; want 21", len(cfgs))
	}
	var got strings.Builder
	for _, cfg := range cfgs {
		st, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v: Run: %v", cfg, err)
		}
		got.WriteString(counterLine(cfg, st) + "\n")
	}
	if *update {
		if err := os.WriteFile(countersGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d counter lines; golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("counters changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
