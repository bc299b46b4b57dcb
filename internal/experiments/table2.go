package experiments

import (
	"fmt"
	"io"
	"sort"

	"superglue/internal/pool"
	"superglue/internal/swifi"
)

// RenderTable2 writes the Table II rows.
func RenderTable2(w io.Writer, results []*swifi.Result) {
	fmt.Fprintf(w, "Table II: SWIFI-based fault injection campaign with SuperGlue\n")
	fmt.Fprintf(w, "%-8s %9s %10s %10s %12s %8s %9s %11s %11s %9s\n",
		"service", "injected", "recovered", "seg fault", "propagated", "other", "degraded", "undetected", "activation", "success")
	for _, r := range results {
		// Multi-core campaigns annotate the service cell with the core
		// count; single-core rows keep the paper's exact layout.
		svc := r.Service
		if r.Cores > 1 {
			svc = fmt.Sprintf("%s/%dc", r.Service, r.Cores)
		}
		fmt.Fprintf(w, "%-8s %9d %10d %10d %12d %8d %9d %11d %10.2f%% %8.2f%%\n",
			svc, r.Injected, r.Recovered, r.Segfault, r.Propagated, r.Other, r.Degraded, r.Undetected,
			100*r.ActivationRatio(), 100*r.SuccessRate())
	}
}

// RenderTable2Kinds writes the fault-kind columns of a shaped campaign:
// for each service, one row per injected kind with its outcome split.
// Services without a per-kind breakdown (legacy campaigns) are skipped.
func RenderTable2Kinds(w io.Writer, results []*swifi.Result) {
	fmt.Fprintf(w, "\nTable II (fault-kind columns): outcomes by injected kind\n")
	fmt.Fprintf(w, "%-8s %-19s %9s %10s %9s %14s %11s\n",
		"service", "kind", "injected", "recovered", "degraded", "not recovered", "undetected")
	for _, r := range results {
		if len(r.Kinds) == 0 {
			continue
		}
		kinds := make([]string, 0, len(r.Kinds))
		for k := range r.Kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			ks := r.Kinds[k]
			fmt.Fprintf(w, "%-8s %-19s %9d %10d %9d %14d %11d\n",
				r.Service, k, ks.Injected, ks.Recovered, ks.Degraded, ks.NotRecovered, ks.Undetected)
		}
	}
}

// Table2PrimeRow compares one service's hang-injection trials with the
// kernel watchdog off and on. Trials are paired: the same seed drives the
// same per-trial RNG stream in both campaigns, so trial i fires the same
// bit flip in both runs and per-trial reclassification is well defined.
type Table2PrimeRow struct {
	Service string
	// HangsFired counts trials whose flip manifested as an unbounded loop.
	HangsFired int
	// Watchdog-off outcomes of those trials.
	OffOther     int
	OffRecovered int
	// Watchdog-on outcomes of the same trials.
	OnRecovered int
	OnDegraded  int
	OnOther     int
	// Reclassified counts trials that moved from "not recovered (other)"
	// to recovered or degraded when the watchdog was enabled.
	Reclassified int
}

// ReclassificationRate is the fraction of watchdog-off "other" hang trials
// the watchdog reclaimed.
func (r *Table2PrimeRow) ReclassificationRate() float64 {
	if r.OffOther == 0 {
		return 0
	}
	return float64(r.Reclassified) / float64(r.OffOther)
}

// Table2Prime runs the Table II′ experiment: each service's campaign twice
// from the same seed — watchdog off, then on — and pairs the hang trials.
// With no services given, all targets run. Services run concurrently on
// the pool (trials within each campaign shard over workers too); the
// off/on pair for one service stays sequential so the paired trials
// share the seed derivation.
func Table2Prime(trials int, seed int64, workers int, services ...string) ([]Table2PrimeRow, error) {
	if trials <= 0 {
		trials = 500
	}
	targets := swifi.Targets()
	if len(services) > 0 {
		for _, svc := range services {
			if _, ok := swifi.Workloads()[svc]; !ok {
				return nil, fmt.Errorf("table2': unknown service %q", svc)
			}
		}
		targets = services
	}
	rows := make([]Table2PrimeRow, len(targets))
	err := pool.Run(len(targets), workers, func(i int) error {
		svc := targets[i]
		cfg := swifi.Config{
			Service:  svc,
			Workload: swifi.Workloads()[svc],
			Iters:    5,
			Trials:   trials,
			Seed:     seed,
			Profile:  swifi.Profiles()[svc],
			Workers:  workers,
		}
		off, err := swifi.Run(cfg)
		if err != nil {
			return fmt.Errorf("table2' %s (watchdog off): %w", svc, err)
		}
		cfg.Watchdog = true
		on, err := swifi.Run(cfg)
		if err != nil {
			return fmt.Errorf("table2' %s (watchdog on): %w", svc, err)
		}
		rows[i] = pairHangTrials(svc, off, on)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// pairHangTrials folds two same-seed campaigns into one Table II′ row.
func pairHangTrials(svc string, off, on *swifi.Result) Table2PrimeRow {
	row := Table2PrimeRow{Service: svc}
	for i := range off.Trials {
		o := off.Trials[i]
		if o.Injection.Effect != swifi.EffectHang {
			continue
		}
		row.HangsFired++
		switch o.Outcome {
		case swifi.OutcomeOther:
			row.OffOther++
		case swifi.OutcomeRecovered:
			row.OffRecovered++
		}
		n := on.Trials[i]
		switch n.Outcome {
		case swifi.OutcomeRecovered:
			row.OnRecovered++
		case swifi.OutcomeDegraded:
			row.OnDegraded++
		case swifi.OutcomeOther:
			row.OnOther++
		}
		if o.Outcome == swifi.OutcomeOther &&
			(n.Outcome == swifi.OutcomeRecovered || n.Outcome == swifi.OutcomeDegraded) {
			row.Reclassified++
		}
	}
	return row
}

// RenderTable2Prime writes the Table II′ rows.
func RenderTable2Prime(w io.Writer, rows []Table2PrimeRow) {
	fmt.Fprintf(w, "Table II': hang injections, kernel watchdog off vs on (same seed, paired trials)\n")
	fmt.Fprintf(w, "%-8s %6s %10s %10s %9s %9s %9s %13s %9s\n",
		"service", "hangs", "off:other", "off:recov", "on:recov", "on:degr", "on:other", "reclassified", "rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %10d %10d %9d %9d %9d %13d %8.2f%%\n",
			r.Service, r.HangsFired, r.OffOther, r.OffRecovered, r.OnRecovered, r.OnDegraded, r.OnOther,
			r.Reclassified, 100*r.ReclassificationRate())
	}
}
