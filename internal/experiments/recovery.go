package experiments

import (
	"fmt"
	"io"

	"superglue/internal/obs"
	"superglue/internal/swifi"
)

// RenderRecoveryBreakdown writes one campaign's per-mechanism table.
func RenderRecoveryBreakdown(w io.Writer, res *swifi.Result) {
	if res.Recovery == nil {
		return
	}
	fmt.Fprintf(w, "%s: per-mechanism recovery breakdown (%d trials, %d recovered)\n",
		res.Service, res.Injected, res.Recovered)
	fmt.Fprintf(w, "  %-4s %8s %8s %10s %8s  %s\n", "mech", "count", "steps", "total-vt", "max-vt", "latency histogram (vt<=bound:count)")
	for _, m := range res.Recovery.Mechanisms {
		fmt.Fprintf(w, "  %-4s %8d %8d %10d %8d  %s\n",
			m.Mechanism, m.Count, m.TotalSteps, m.TotalVT, m.MaxVT,
			histString(res.Recovery.BucketBounds, m.Hist))
	}
}

// histString renders the non-zero histogram cells compactly.
func histString(bounds []string, hist [obs.NumBuckets]uint64) string {
	s := ""
	for i, n := range hist {
		if n == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", bounds[i], n)
	}
	if s == "" {
		return "-"
	}
	return s
}
