package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"superglue/internal/webserver"
)

// Fig7Row is one bar of Fig. 7: its registry row's req/s over the rounds.
type Fig7Row struct {
	Label string
	// MedianRPS is the row's req/s extra, the server's serving-phase
	// clock (machine build and request rendering stay out of it), as a
	// median over the rounds; MinRPS and MaxRPS are its slowest and
	// fastest round.
	MedianRPS, MinRPS, MaxRPS float64
	// USPerReq is 1e6 / MedianRPS.
	USPerReq float64
}

// Fig7Ratio is one throughput ratio of Fig. 7, num/den, taken within each
// round and summarised over the rounds.
type Fig7Ratio struct {
	Label            string
	Median, Min, Max float64
	// Paper is the ratio the paper's Fig. 7 reports.
	Paper float64
	// DeltaUS is num's median µs per request less den's, and PaperDeltaUS
	// the same difference of the paper's req/s.
	DeltaUS, PaperDeltaUS float64
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
	// Faults marks the with-crashes bar (see runWebServer for the period).
	Faults bool
}

// WebVariants lists the bars of Fig. 7 in the paper's order; the benchmark
// registry's WebServer rows run this list.
var WebVariants = []WebVariant{
	{"baseline", "apache-like (no components)", "apache-like", webserver.VariantBaseline, false},
	{"composite", "composite (no recovery)", "composite", webserver.VariantComposite, false},
	{"c3", "composite+c3", "c3", webserver.VariantC3, false},
	{"superglue", "composite+superglue", "superglue", webserver.VariantSuperGlue, false},
	{"superglue-faults", "composite+superglue +faults", "superglue+faults", webserver.VariantSuperGlue, true},
}

// fig7PaperRPS is each bar's req/s in the paper, in WebVariants order:
// Apache 17.6k, Composite 16.2k, C³ 14.5k, SuperGlue 14.3k, and with one
// crash per 10 s 13.6% below Composite.
var fig7PaperRPS = []float64{17600, 16200, 14500, 14300, 16200 * (1 - 0.136)}

// fig7Ratios are the ratios Fig7 reports, as indices into WebVariants, with
// the ratios the paper's text gives (10.5% and 11.84% slowdown for C³ and
// SuperGlue, 13.6% with crashes).
var fig7Ratios = []struct {
	num, den int
	paper    float64
}{
	{1, 0, 0.92},
	{2, 1, 0.895},
	{3, 1, 0.88},
	{4, 1, 0.864},
}

// timelineRequests is the size of the with-faults run behind the
// timeline: the paper's ab invocation sends 50000 requests.
const timelineRequests = 50000

// Fig7Benchmarks returns the registry rows Fig7 is computed from, the
// WebServer row of each bar, in WebVariants order.
func Fig7Benchmarks() []Bench {
	return slices.DeleteFunc(Benchmarks(), func(e Bench) bool { return !strings.HasPrefix(e.Name, "WebServer/") })
}

// Fig7 computes web-server throughput for the plain baseline, the raw
// component substrate, C³, SuperGlue, and SuperGlue under periodic fault
// injection from results (RunBenchmarks over Fig7Benchmarks). Every ratio
// is taken within a round, so host-speed drift between rounds cancels out
// of it; each row must therefore carry its per-round runs, the same number
// for every bar.
func Fig7(results []BenchResult) (*Fig7Result, error) {
	names := make([]string, len(WebVariants))
	for i, wv := range WebVariants {
		names[i] = "WebServer/" + wv.Name
	}
	rows, err := findResults(results, names)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Rounds: len(rows[0].Runs)}
	rps := make([][]float64, len(rows)) // rps[i][r]: bar i's req/s in round r
	for i, row := range rows {
		if len(row.Runs) == 0 || len(row.Runs) != res.Rounds {
			return nil, fmt.Errorf("fig7: %s has %d rounds, %s %d", row.Name, len(row.Runs), rows[0].Name, res.Rounds)
		}
		for _, run := range row.Runs {
			v, ok := run.Extra["req/s"]
			if !ok || v <= 0 {
				return nil, fmt.Errorf("fig7: %s has a round without req/s", row.Name)
			}
			rps[i] = append(rps[i], v)
		}
		med := row.Extra["req/s"]
		res.Rows = append(res.Rows, Fig7Row{Label: WebVariants[i].Label, MedianRPS: med,
			MinRPS: slices.Min(rps[i]), MaxRPS: slices.Max(rps[i]), USPerReq: 1e6 / med})
	}
	for _, q := range fig7Ratios {
		ratios := make([]float64, res.Rounds)
		for r := range ratios {
			ratios[r] = rps[q.num][r] / rps[q.den][r]
		}
		med := median(ratios) // sorts ratios
		res.Ratios = append(res.Ratios, Fig7Ratio{
			Label:  WebVariants[q.num].Short + " / " + WebVariants[q.den].Short,
			Median: med, Min: ratios[0], Max: ratios[len(ratios)-1], Paper: q.paper,
			DeltaUS:      res.Rows[q.num].USPerReq - res.Rows[q.den].USPerReq,
			PaperDeltaUS: 1e6/fig7PaperRPS[q.num] - 1e6/fig7PaperRPS[q.den]})
	}
	return res, nil
}

// RenderFig7 writes the Fig. 7 comparison: per-variant throughput and µs
// per request, and the per-round ratios and µs deltas beside the paper's.
func RenderFig7(w io.Writer, res *Fig7Result) {
	fmt.Fprintf(w, "Fig 7: web server throughput (requests/second on the serving clock; %d interleaved rounds)\n", res.Rounds)
	fmt.Fprintf(w, "%-30s %14s %12s %12s %9s\n", "system", "median req/s", "min", "max", "µs/req")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-30s %14.0f %12.0f %12.0f %9.3f\n", r.Label, r.MedianRPS, r.MinRPS, r.MaxRPS, r.USPerReq)
	}
	fmt.Fprintf(w, "(+faults: one component crash per b.N/10+1 requests of each round)\n")
	fmt.Fprintf(w, "\n%-30s %9s %7s %7s %7s %9s %9s\n", "throughput ratio (per round)", "median", "min", "max", "paper", "Δµs/req", "paper Δµs")
	for _, q := range res.Ratios {
		fmt.Fprintf(w, "%-30s %9.3f %7.3f %7.3f %7.3f %9.3f %9.3f\n", q.Label, q.Median, q.Min, q.Max, q.Paper, q.DeltaUS, q.PaperDeltaUS)
	}
}

// Fig7Timeline serves the with-faults bar once, outside the registry's
// rounds, for its completion timeline.
func Fig7Timeline() (*webserver.Stats, error) {
	wv := WebVariants[len(WebVariants)-1]
	return runWebServer(webserver.Config{Variant: wv.Variant}, timelineRequests, wv.Faults)
}

// RenderFig7Timeline writes a with-faults run's completion timeline,
// showing that throughput dips during recovery but never drops to zero.
func RenderFig7Timeline(w io.Writer, st *webserver.Stats) {
	if len(st.Timeline) == 0 {
		return
	}
	fmt.Fprintf(w, "\nTimeline (%v, %d requests, %d crashes): completions over wall time\n", st.Variant, st.Completed, st.Faults)
	prev := st.Timeline[0]
	for i, pt := range st.Timeline {
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
