package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"superglue/internal/core"
	"superglue/internal/swifi"
	"superglue/internal/webserver"
	"superglue/internal/workload"
)

// trialWindow is swifi-traced's stall window, in trials: small enough that
// one repetition holds a few hundred windows, so the stall p90 has more
// than minBeyond windows above it.
const trialWindow = 10

// campaignConfigs returns the swifi-traced campaigns: every service, storm
// shape with the default kinds, three storage replicas, tracing on, one
// worker, per-trial records discarded.
func campaignConfigs(seed int64, trials int, trace bool, workers int) []swifi.Config {
	var cfgs []swifi.Config
	for _, svc := range swifi.Targets() {
		cfgs = append(cfgs, swifi.Config{
			Service:       svc,
			Workload:      swifi.Workloads()[svc],
			Iters:         5,
			Trials:        trials,
			Seed:          seed,
			Profile:       swifi.Profiles()[svc],
			Mode:          core.OnDemand,
			Trace:         trace,
			Workers:       workers,
			Shape:         swifi.ShapeStorm,
			Replicas:      3,
			DiscardTrials: true,
		})
	}
	return cfgs
}

// table2Row is the outcome tuple of one campaign: the Table II row.
type table2Row [7]int

func rowOf(r *swifi.Result) table2Row {
	return table2Row{r.Injected, r.Recovered, r.Segfault, r.Propagated, r.Other, r.Degraded, r.Undetected}
}

// checkCampaign gates one campaign's result: every trial injected and
// classified exactly once.
func checkCampaign(cfg swifi.Config, r *swifi.Result) error {
	row := rowOf(r)
	if row[0] != cfg.Trials {
		return fmt.Errorf("%s: injected %d of %d trials", cfg.Service, row[0], cfg.Trials)
	}
	if sum := row[1] + row[2] + row[3] + row[4] + row[5] + row[6]; sum != row[0] {
		return fmt.Errorf("%s: outcome columns sum to %d, injected %d", cfg.Service, sum, row[0])
	}
	return nil
}

// stampTrials wraps a workload factory so each trial records when it
// starts building its system. With one worker the trials run back to
// back, so consecutive stamps bound one trial's wall time; the first call
// is Run's own dry run. The lock covers campaigns on several workers.
func stampTrials(f workload.Factory, stamps *[]time.Time) workload.Factory {
	var mu sync.Mutex
	return func(iters int) workload.Workload {
		mu.Lock()
		*stamps = append(*stamps, time.Now())
		mu.Unlock()
		return f(iters)
	}
}

// campaignRun is one pass over the six campaigns.
type campaignRun struct {
	results []*swifi.Result
	walls   []time.Duration
	// timeline holds, per campaign, each trial's completion time relative
	// to the campaign's first trial start.
	timelines [][]webserver.BucketPoint
}

// runCampaigns runs cfgs one after another through swifi.Run.
func runCampaigns(cfgs []swifi.Config) (*campaignRun, error) {
	cr := &campaignRun{}
	for _, cfg := range cfgs {
		var stamps []time.Time
		cfg.Workload = stampTrials(cfg.Workload, &stamps)
		t0 := time.Now()
		res, err := swifi.Run(cfg)
		end := time.Now()
		if err != nil {
			return cr, fmt.Errorf("%s campaign: %w", cfg.Service, err)
		}
		if err := checkCampaign(cfg, res); err != nil {
			return cr, err
		}
		if len(stamps) != cfg.Trials+1 {
			return cr, fmt.Errorf("%s: %d workload builds for %d trials and one dry run", cfg.Service, len(stamps), cfg.Trials)
		}
		trialStarts := append(stamps[1:], end)
		tl := make([]webserver.BucketPoint, cfg.Trials)
		for i := range tl {
			tl[i] = webserver.BucketPoint{Completed: i + 1, Elapsed: trialStarts[i+1].Sub(trialStarts[0])}
		}
		cr.results = append(cr.results, res)
		cr.walls = append(cr.walls, end.Sub(t0))
		cr.timelines = append(cr.timelines, tl)
	}
	return cr, nil
}

// swifiRep runs one repetition of swifi-traced: the six dry runs (the
// set-up), then the six campaigns. want, when non-nil, is the first
// repetition's Table II; a repetition that differs is a determinism
// failure.
func swifiRep(cfgs []swifi.Config, want []table2Row) (repOut, []table2Row, error) {
	trials := 0
	for _, cfg := range cfgs {
		trials += cfg.Trials
	}
	out := repOut{ops: trials}
	t0 := time.Now()
	for _, cfg := range cfgs {
		if _, err := swifi.Opportunities(cfg); err != nil {
			out.failed = trials
			return out, nil, fmt.Errorf("%s dry run: %w", cfg.Service, err)
		}
	}
	setup := time.Since(t0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cr, err := runCampaigns(cfgs)
	runtime.ReadMemStats(&after)
	if err != nil {
		for i := len(cr.results); i < len(cfgs); i++ {
			out.failed += cfgs[i].Trials
		}
		return out, nil, err
	}
	var rows []table2Row
	var wall time.Duration
	var injected, recovered int
	var gaps, stalls []float64
	for i, res := range cr.results {
		rows = append(rows, rowOf(res))
		if want != nil && rows[i] != want[i] {
			return out, nil, fmt.Errorf("%s: Table II row %v differs from the first repetition's %v", res.Service, rows[i], want[i])
		}
		wall += cr.walls[i]
		injected += res.Injected
		recovered += res.Recovered
		g, s := gapsAndStalls(cr.timelines[i], trialWindow)
		gaps = append(gaps, g...)
		stalls = append(stalls, s...)
	}
	m, err := timingMetrics(gaps, stalls)
	if err != nil {
		return out, nil, fmt.Errorf("swifi-traced: %w", err)
	}
	m["ops_s"] = float64(trials) / wall.Seconds()
	m["setup_s"] = setup.Seconds()
	m["alloc_b_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(trials)
	m["recovered_ratio"] = float64(recovered) / float64(injected)
	out.metrics, out.gaps, out.stalls = m, len(gaps), len(stalls)
	return out, rows, nil
}
