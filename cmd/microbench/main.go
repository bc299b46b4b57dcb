// Command microbench regenerates the per-service micro-benchmarks of
// Fig. 6: (a) the descriptor-tracking infrastructure overhead of the C³ and
// SuperGlue stubs versus raw invocations, (b) the per-descriptor recovery
// overhead, and (c) the lines-of-code comparison between the declarative
// IDL, the code the compiler generates from it, and the hand-written C³
// stubs it replaces. The `mechanisms` figure prints the recovery-mechanism
// sets derived from each interface specification (§III-C), and `ablation`
// the eager-vs-on-demand recovery ablation of §II-C: per fault, the
// invocations and recovery-walk steps a high-priority first post-fault
// accessor and a low-priority descriptor owner each run. It is a count,
// the same bytes on every run.
//
// Fig. 6(a)/(b) run their rows of the benchmark registry in -count
// interleaved rounds, about two seconds per row per round.
//
// Usage:
//
//	microbench [-fig 6a|6b|6c|mechanisms|ablation|all] [-count 5]
package main

import (
	"flag"
	"fmt"
	"os"

	"superglue/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 6a, 6b, 6c, mechanisms, ablation, all")
	count := flag.Int("count", 5, "interleaved rounds of the registry rows (6a, 6b)")
	flag.Parse()

	if err := run(*fig, *count); err != nil {
		fmt.Fprintln(os.Stderr, "microbench:", err)
		os.Exit(1)
	}
}

func run(fig string, count int) error {
	want := func(name string) bool { return fig == "all" || fig == name }
	var results []experiments.BenchResult
	if want("6a") || want("6b") {
		var err error
		if results, err = experiments.RunBenchmarks(experiments.Fig6Benchmarks(want("6a"), want("6b")), count); err != nil {
			return err
		}
	}
	if want("6a") {
		rows, err := experiments.Fig6a(results)
		if err != nil {
			return err
		}
		experiments.RenderFig6a(os.Stdout, rows)
		fmt.Println()
	}
	if want("6b") {
		rows, err := experiments.Fig6b(results)
		if err != nil {
			return err
		}
		experiments.RenderFig6b(os.Stdout, rows)
		fmt.Println()
	}
	if want("6c") {
		rows, err := experiments.Fig6c()
		if err != nil {
			return err
		}
		experiments.RenderFig6c(os.Stdout, rows)
		fmt.Println()
	}
	if want("mechanisms") {
		rows, err := experiments.Mechanisms()
		if err != nil {
			return err
		}
		experiments.RenderMechanisms(os.Stdout, rows)
		fmt.Println()
	}
	if want("ablation") {
		rows, err := experiments.RecoveryAblation()
		if err != nil {
			return err
		}
		experiments.RenderAblation(os.Stdout, rows)
	}
	if !want("6a") && !want("6b") && !want("6c") && !want("mechanisms") && !want("ablation") {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
