package experiments

import (
	"fmt"
	"io"

	"superglue/internal/pool"
	"superglue/internal/webserver"
)

// Fig7Config parameterizes the web-server throughput comparison.
type Fig7Config struct {
	// Requests per run (the paper's ab invocation sends 50000).
	Requests int
	// Repeats is the number of rounds. A round runs every variant once,
	// back to back, starting one variant later than the previous round,
	// so each variant sees the same host conditions as its neighbours and
	// every ratio is taken within one round (the paper repeats 20 times).
	Repeats int
	// Replicas is the storage replication factor per run (0/1 = the
	// legacy single-copy store).
	Replicas int
	// Workers per server.
	Workers int
	// Cores is the number of simulated cores per run (0 or 1 = single-core).
	// Execution stays globally serialized, so multi-core runs model
	// migration cost, not wall-clock parallelism.
	Cores int
	// FaultEvery is the with-faults SuperGlue run's crash period in
	// requests; 0 takes Requests/10. That run is always part of the
	// figure.
	FaultEvery int
	// Parallel runs rounds concurrently on the shared pool
	// (internal/pool). Runs are wall-clock throughput measurements, so
	// concurrent rounds contend for the cores being measured — use > 1
	// for smoke runs where total wall-clock matters more than measurement
	// isolation, and leave it at the default 1 for reported numbers.
	Parallel int
}

// Fig7Row is one bar of Fig. 7: a variant's throughput over the rounds.
type Fig7Row struct {
	Label      string
	Variant    webserver.Variant
	MedianRPS  float64
	MinRPS     float64
	MaxRPS     float64
	Faults     int
	Cores      int
	Migrations uint64
	Timeline   []webserver.BucketPoint
}

// Fig7Ratio is one throughput ratio of Fig. 7, num/den, taken within each
// round and summarised over the rounds.
type Fig7Ratio struct {
	Label  string
	Median float64
	Min    float64
	Max    float64
	// Paper is the ratio the paper's Fig. 7 reports.
	Paper float64
}

// Fig7Result is Fig. 7: one row per variant and the ratios the paper's
// claims rest on.
type Fig7Result struct {
	Rounds int
	Rows   []Fig7Row
	Ratios []Fig7Ratio
}

// WebVariant is one bar of Fig. 7: a web-server variant, with or without
// the periodic crash.
type WebVariant struct {
	// Name names the bar's registry row, WebServer/<Name>.
	Name string
	// Label and Short name the bar in the Fig. 7 table and in its ratios.
	Label, Short string
	Variant      webserver.Variant
	// Faults marks the with-crashes bar; each caller picks the period.
	Faults bool
}

// WebVariants lists the bars of Fig. 7 in the paper's order; Fig7 and the
// benchmark registry's WebServer rows both run this list.
var WebVariants = []WebVariant{
	{"baseline", "apache-like (no components)", "apache-like", webserver.VariantBaseline, false},
	{"composite", "composite (no recovery)", "composite", webserver.VariantComposite, false},
	{"c3", "composite+c3", "c3", webserver.VariantC3, false},
	{"superglue", "composite+superglue", "superglue", webserver.VariantSuperGlue, false},
	{"superglue-faults", "composite+superglue +faults", "superglue+faults", webserver.VariantSuperGlue, true},
}

// fig7Ratios are the ratios Fig7 reports, as indices into WebVariants, with
// the paper's values (Apache 17.6k, Composite 16.2k, C³ 14.5k and
// SuperGlue 14.3k req/s; 13.6% slowdown with one crash per 10 s).
var fig7Ratios = []struct {
	num, den int
	paper    float64
}{
	{1, 0, 0.92},
	{2, 1, 0.895},
	{3, 1, 0.88},
	{4, 1, 0.864},
}

// Fig7 measures web-server throughput for the plain baseline, the raw
// component substrate, C³, SuperGlue, and SuperGlue under periodic fault
// injection, interleaved round by round (see Fig7Config.Repeats).
func Fig7(cfg Fig7Config) (*Fig7Result, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 50000
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 5
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.FaultEvery == 0 {
		cfg.FaultEvery = cfg.Requests / 10
	}

	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	// stats[r][i] is round r's run of plan i. Each round writes only its
	// own slot, so the result is the same for any Parallel setting (the
	// measured throughputs themselves are noisier when rounds contend).
	stats := make([][]*webserver.Stats, cfg.Repeats)
	err := pool.Run(cfg.Repeats, parallel, func(r int) error {
		stats[r] = make([]*webserver.Stats, len(WebVariants))
		for j := range WebVariants {
			i := (r + j) % len(WebVariants)
			p := WebVariants[i]
			faultEvery := 0
			if p.Faults {
				faultEvery = cfg.FaultEvery
			}
			st, err := webserver.Run(webserver.Config{
				Variant:    p.Variant,
				Requests:   cfg.Requests,
				Workers:    cfg.Workers,
				Cores:      cfg.Cores,
				Replicas:   cfg.Replicas,
				FaultEvery: faultEvery,
			})
			if err != nil {
				return fmt.Errorf("fig7 %s: %w", p.Label, err)
			}
			if st.Errors > 0 {
				return fmt.Errorf("fig7 %s: %d request errors", p.Label, st.Errors)
			}
			stats[r][i] = st
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Rounds: cfg.Repeats}
	last := stats[cfg.Repeats-1]
	for i, p := range WebVariants {
		rps := make([]float64, cfg.Repeats)
		for r := range stats {
			rps[r] = stats[r][i].Throughput
		}
		med := median(rps) // sorts rps
		res.Rows = append(res.Rows, Fig7Row{Label: p.Label, Variant: p.Variant,
			MedianRPS: med, MinRPS: rps[0], MaxRPS: rps[len(rps)-1],
			Faults: last[i].Faults, Cores: last[i].Cores, Migrations: last[i].Migrations,
			Timeline: last[i].Timeline})
	}
	for _, q := range fig7Ratios {
		ratios := make([]float64, cfg.Repeats)
		for r := range stats {
			ratios[r] = stats[r][q.num].Throughput / stats[r][q.den].Throughput
		}
		med := median(ratios) // sorts ratios
		res.Ratios = append(res.Ratios, Fig7Ratio{
			Label:  WebVariants[q.num].Short + " / " + WebVariants[q.den].Short,
			Median: med, Min: ratios[0], Max: ratios[len(ratios)-1], Paper: q.paper})
	}
	return res, nil
}

// RenderFig7 writes the Fig. 7 comparison: per-variant throughput and the
// per-round ratios beside the paper's.
func RenderFig7(w io.Writer, res *Fig7Result) {
	fmt.Fprintf(w, "Fig 7: web server throughput (requests/second, wall clock; %d interleaved rounds)\n", res.Rounds)
	fmt.Fprintf(w, "%-30s %14s %12s %12s %7s\n", "system", "median req/s", "min", "max", "faults")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-30s %14.0f %12.0f %12.0f %7d\n",
			r.Label, r.MedianRPS, r.MinRPS, r.MaxRPS, r.Faults)
	}
	fmt.Fprintf(w, "\n%-30s %14s %12s %12s %7s\n", "throughput ratio (per round)", "median", "min", "max", "paper")
	for _, q := range res.Ratios {
		fmt.Fprintf(w, "%-30s %14.3f %12.3f %12.3f %7.3f\n", q.Label, q.Median, q.Min, q.Max, q.Paper)
	}
	for _, r := range res.Rows {
		if r.Cores > 1 {
			fmt.Fprintf(w, "%-30s %d cores, %d cross-core migrations (execution serialized; migration cost only)\n",
				r.Label, r.Cores, r.Migrations)
		}
	}
}

// RenderFig7Timeline writes the with-faults completion timeline, showing
// that throughput dips during recovery but never drops to zero.
func RenderFig7Timeline(w io.Writer, res *Fig7Result) {
	for _, r := range res.Rows {
		if r.Faults == 0 || len(r.Timeline) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nTimeline (%s): completions over wall time\n", r.Label)
		prev := r.Timeline[0]
		for i, pt := range r.Timeline {
			if i == 0 {
				fmt.Fprintf(w, "  %8d req @ %10v\n", pt.Completed, pt.Elapsed.Round(1000))
				continue
			}
			dReq := pt.Completed - prev.Completed
			dT := pt.Elapsed - prev.Elapsed
			rate := 0.0
			if dT > 0 {
				rate = float64(dReq) / dT.Seconds()
			}
			fmt.Fprintf(w, "  %8d req @ %10v (%8.0f req/s in bucket)\n", pt.Completed, pt.Elapsed.Round(1000), rate)
			prev = pt
		}
	}
}

// MechanismRow maps one service to its derived recovery-mechanism set
// (the §III-C narrative table).
type MechanismRow struct {
	Service    string
	Mechanisms string
}

// Mechanisms derives each service's recovery-mechanism set from its IDL.
func Mechanisms() ([]MechanismRow, error) {
	var rows []MechanismRow
	for _, svc := range serviceRows {
		spec, err := svc.spec()
		if err != nil {
			return nil, err
		}
		rows = append(rows, MechanismRow{Service: svc.name, Mechanisms: fmt.Sprint(spec.Mechanisms())})
	}
	return rows, nil
}

// RenderMechanisms writes the mechanism table.
func RenderMechanisms(w io.Writer, rows []MechanismRow) {
	fmt.Fprintf(w, "Recovery mechanisms derived from each interface specification (§III-C)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %s\n", r.Service, r.Mechanisms)
	}
}
