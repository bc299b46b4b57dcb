// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (§V): the per-service micro-benchmarks
// of Fig. 6(a)/(b), the lines-of-code comparison of Fig. 6(c), the SWIFI
// campaign of Table II, the web-server throughput comparison of Fig. 7,
// and the eager-vs-on-demand recovery ablation of §II-C, counted in
// invocations. Each driver returns structured results plus a text
// renderer, and is invoked by the cmd/microbench, cmd/swifi and
// cmd/webbench binaries.
//
// It also holds the benchmark registry (Benchmarks) and its runner
// (RunBenchmarks), which cmd/benchjson, Fig6a/Fig6b, Fig7 and `go test
// -bench` share. RunBenchmarks is the package's one wall clock.
package experiments

import (
	"sort"
	"strings"

	"superglue/internal/kernel"
)

// median returns the median of xs, sorting xs in place (0 for no
// samples). Unlike the mean, one outlier sample cannot move it far.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// CountLOC counts non-blank, non-comment-only lines, the convention used
// for the paper's Fig. 6(c). It understands //-comments and /* */ blocks
// (shared by the IDL and Go sources being compared).
func CountLOC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if inBlock {
			idx := strings.Index(trimmed, "*/")
			if idx < 0 {
				continue
			}
			inBlock = false
			trimmed = strings.TrimSpace(trimmed[idx+2:])
		}
		// Strip inline /* ... */ blocks; an unterminated one opens a
		// multi-line block.
		for {
			start := strings.Index(trimmed, "/*")
			if start < 0 {
				break
			}
			end := strings.Index(trimmed[start:], "*/")
			if end < 0 {
				inBlock = true
				trimmed = strings.TrimSpace(trimmed[:start])
				break
			}
			trimmed = strings.TrimSpace(trimmed[:start] + trimmed[start+end+2:])
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		n++
	}
	return n
}

// runBench runs body on one "bench" thread of k's machine and returns the
// machine's error or, failing that, the body's.
func runBench(k *kernel.Kernel, body func(t *kernel.Thread) error) error {
	var runErr error
	if _, err := k.CreateThread(nil, "bench", 10, func(t *kernel.Thread) { runErr = body(t) }); err != nil {
		return err
	}
	if err := k.Run(); err != nil {
		return err
	}
	return runErr
}
