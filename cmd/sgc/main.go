// Command sgc is the SuperGlue IDL compiler: it parses .sg interface
// specifications and emits each interface's typed client (Go source)
// over the one recovery engine, core.ClientStub, following the compiler
// pipeline of §IV-B.
//
// Usage:
//
//	sgc [-o dir] [-print] [-loc] file.sg [file2.sg ...]
//	sgc -builtin [-o dir] [-loc]
//	sgc vet [-builtin] [-gen] [-gendir dir] [-format text|sarif] [file.sg ...]
//	sgc check [-builtin] [-k n] [-m n] [-policy strat] [-fail-hard]
//	          [-run SG2xx,...] [-repro] [-trajectory] [-budget dur]
//	          [-max-states n] [-format text|sarif] [-o file] [file.sg ...]
//	sgc doc [-builtin] [-o dir] [-print] [-check] [file.sg ...]
//
// The service name is derived from each file's base name (event.sg →
// service "event", package "genevent"). -builtin compiles the six embedded
// system-service specifications of the evaluation. -loc prints the
// IDL-vs-generated line counts of Fig. 6(c), counted the way
// `microbench -fig 6c` counts them (experiments.CountLOC).
//
// The vet subcommand runs the semantic spec lints of
// internal/analysis/speclint over the given specifications (SG1xx
// diagnostics: unreachable states, descriptor leaks, hold/wakeup pairing,
// shadowed transitions, mechanism coverage) and, with -gen, checks the
// committed generated clients for drift against the generator. It exits
// nonzero if any warning- or error-severity diagnostic fires, or if any
// committed generated file is stale, missing or extra.
//
// The check subcommand runs the bounded exhaustive recovery model checker
// of internal/analysis/model over the given specifications (SG2xx
// diagnostics: recovery-coverage liveness, recovery-walk termination,
// restart-intensity reachability, stranded holds), verifying every fault
// kind in every reachable configuration of a bounded k-descriptor /
// m-thread system. Violations carry full witness traces; -repro lowers
// each to a concrete SWIFI injection plan (seed, shape, kind pool, trial
// schedule) that replays the counterexample dynamically. -run restricts
// reporting to a comma-separated code subset (the multichecker-style
// entry); -budget and -max-states bound wall-clock and state counts,
// failing loudly when exceeded; -trajectory prints the BFS frontier
// sizes the CI budget guard watches.
//
// Both vet and check accept -format sarif, emitting one SARIF 2.1.0 run
// for CI code-scanning upload (-o selects the output file).
//
// The doc subcommand renders each specification as a markdown reference
// document (descriptor-resource model, recovery-mechanism coverage,
// interface functions, the descriptor state machine as a Mermaid diagram,
// recovery walks, and the model checker's verified-properties section).
// -check verifies the committed docs/services files against the
// specifications and exits nonzero on drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"superglue/internal/analysis/driftcheck"
	"superglue/internal/analysis/model"
	"superglue/internal/analysis/sarif"
	"superglue/internal/analysis/speclint"
	"superglue/internal/codegen"
	"superglue/internal/docgen"
	"superglue/internal/experiments"
	"superglue/internal/idl"
	"superglue/internal/services/builtin"
	"superglue/internal/swifi"
)

func main() {
	args := os.Args[1:]
	var err error
	if len(args) > 0 && args[0] == "vet" {
		err = runVet(args[1:], os.Stdout)
	} else if len(args) > 0 && args[0] == "check" {
		err = runCheck(args[1:], os.Stdout, os.Stderr)
	} else if len(args) > 0 && args[0] == "doc" {
		err = runDoc(args[1:], os.Stdout)
	} else {
		err = run(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgc:", err)
		os.Exit(1)
	}
}

type source struct {
	service string
	src     string
	// path locates the spec for SARIF artifact references: the argument
	// path for file inputs, the repo-relative source for builtins.
	path string
}

// gatherSources assembles the specification list from -builtin and/or file
// arguments, in deterministic order.
func gatherSources(useBuiltin bool, paths []string) ([]source, error) {
	var sources []source
	if useBuiltin {
		for _, b := range builtin.Sources() {
			sources = append(sources, source{
				service: b.Service,
				src:     b.IDL,
				path:    filepath.Join("internal/services", b.Service, b.Service+".sg"),
			})
		}
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		sources = append(sources, source{service: name, src: string(raw), path: path})
	}
	return sources, nil
}

// sarifLevel maps a speclint severity to a SARIF result level.
func sarifLevel(sev speclint.Severity) string {
	switch sev {
	case speclint.SevError:
		return "error"
	case speclint.SevWarn:
		return "warning"
	default:
		return "note"
	}
}

// writeOut writes text to path, or to out when path is empty.
func writeOut(out *os.File, path string, emit func(w io.Writer) error) error {
	if path == "" {
		return emit(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns the file names of a generated-file map in stable
// order, so printed and written output does not vary with map iteration.
func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for fname := range files {
		names = append(names, fname)
	}
	sort.Strings(names)
	return names
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("sgc", flag.ContinueOnError)
	outDir := fs.String("o", "", "output directory root (one package per service); empty = no files written")
	printSrc := fs.Bool("print", false, "print generated code to stdout")
	loc := fs.Bool("loc", false, "print IDL vs generated line counts (Fig. 6(c))")
	useBuiltin := fs.Bool("builtin", false, "compile the six built-in system-service specifications")
	format := fs.Bool("format", false, "print each specification normalized back to IDL instead of compiling")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sources, err := gatherSources(*useBuiltin, fs.Args())
	if err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("no input: pass .sg files or -builtin")
	}

	for _, s := range sources {
		spec, err := idl.Parse(s.service, s.src)
		if err != nil {
			return err
		}
		if *format {
			fmt.Fprintf(out, "// %s.sg (normalized)\n%s\n", s.service, idl.Format(spec))
			continue
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			return err
		}
		files, err := codegen.Generate(ir)
		if err != nil {
			return err
		}
		if *loc {
			genLOC := 0
			for _, fname := range sortedNames(files) {
				genLOC += experiments.CountLOC(files[fname])
			}
			fmt.Fprintf(out, "%-8s IDL %3d LOC → generated %4d LOC (typed client)\n",
				s.service, experiments.CountLOC(s.src), genLOC)
		}
		if *printSrc {
			for _, fname := range sortedNames(files) {
				fmt.Fprintf(out, "// ===== %s/%s =====\n%s\n", ir.Package(), fname, files[fname])
			}
		}
		if *outDir != "" {
			dir := filepath.Join(*outDir, ir.Package())
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			for _, fname := range sortedNames(files) {
				if err := os.WriteFile(filepath.Join(dir, fname), []byte(files[fname]), 0o644); err != nil {
					return err
				}
			}
			fmt.Fprintf(out, "%s: wrote %d files to %s\n", s.service, len(files), dir)
		}
	}
	return nil
}

// runDoc implements `sgc doc`: the markdown reference generator and its
// drift check over the committed docs/services files.
func runDoc(args []string, out *os.File) error {
	fs := flag.NewFlagSet("sgc doc", flag.ContinueOnError)
	outDir := fs.String("o", "docs/services", "output directory for the generated markdown")
	useBuiltin := fs.Bool("builtin", false, "document the six built-in system-service specifications")
	printSrc := fs.Bool("print", false, "print generated markdown to stdout instead of writing files")
	check := fs.Bool("check", false, "verify the committed documents match the specifications; exit nonzero on drift")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check {
		drifts, err := docgen.Check(*outDir)
		if err != nil {
			return err
		}
		for _, d := range drifts {
			fmt.Fprintln(out, d)
		}
		if len(drifts) > 0 {
			return fmt.Errorf("doc drift detected (%d files)", len(drifts))
		}
		fmt.Fprintf(out, "doc: committed documents under %s match the specifications\n", *outDir)
		return nil
	}

	sources, err := gatherSources(*useBuiltin, fs.Args())
	if err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("doc: no input: pass .sg files, -builtin, or -check")
	}
	if !*printSrc {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, s := range sources {
		spec, err := idl.Parse(s.service, s.src)
		if err != nil {
			return err
		}
		doc, err := docgen.Generate(spec)
		if err != nil {
			return err
		}
		if *printSrc {
			fmt.Fprint(out, doc)
			continue
		}
		path := filepath.Join(*outDir, s.service+".md")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: wrote %s\n", s.service, path)
	}
	return nil
}

// runVet implements `sgc vet`: speclint over specifications plus the
// generated-client drift check.
func runVet(args []string, out *os.File) error {
	fs := flag.NewFlagSet("sgc vet", flag.ContinueOnError)
	useBuiltin := fs.Bool("builtin", false, "lint the six built-in system-service specifications")
	gen := fs.Bool("gen", false, "check committed generated clients for drift against the generator")
	genDir := fs.String("gendir", "internal/gen", "directory holding the committed generated packages")
	format := fs.String("format", "text", "output format: text or sarif")
	outPath := fs.String("o", "", "output file for -format sarif (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "sarif" {
		return fmt.Errorf("vet: unknown format %q (want text or sarif)", *format)
	}
	if !*useBuiltin && !*gen && fs.NArg() == 0 {
		return fmt.Errorf("vet: no input: pass .sg files, -builtin, or -gen")
	}

	sources, err := gatherSources(*useBuiltin, fs.Args())
	if err != nil {
		return err
	}
	var sb *sarif.Builder
	if *format == "sarif" {
		sb = sarif.NewBuilder("sgc-vet", "docs/LINT.md")
	}
	bad := false
	for _, s := range sources {
		diags, err := speclint.LintSource(s.service, s.src)
		if err != nil {
			return err
		}
		for _, d := range diags {
			if sb != nil {
				sb.Add(d.Code, sarifLevel(d.Severity), fmt.Sprintf("%s: %s", d.Service, d.Message), s.path, d.Line, nil)
			} else {
				fmt.Fprintln(out, d)
			}
			if d.Severity >= speclint.SevWarn {
				bad = true
			}
		}
	}
	if *gen {
		drifts, err := driftcheck.Check(*genDir)
		if err != nil {
			return err
		}
		for _, d := range drifts {
			if sb != nil {
				sb.Add("SGDRIFT", "error", d.String(), d.Path, 0, nil)
			} else {
				fmt.Fprintln(out, d)
			}
			bad = true
		}
		if len(drifts) == 0 && sb == nil {
			fmt.Fprintf(out, "gen: committed clients under %s match the generator\n", *genDir)
		}
	}
	if sb != nil {
		if err := writeOut(out, *outPath, sb.Write); err != nil {
			return err
		}
	}
	if bad {
		return fmt.Errorf("vet found problems")
	}
	return nil
}

// modelRules is the SG2xx rule table for SARIF output, one line per code
// of the internal/analysis/model catalogue.
var modelRules = map[string]string{
	"SG201": "recovery-coverage liveness: a fault reaches neither a recovered nor a degraded terminal",
	"SG202": "recovery-walk termination: a hold-replay or wakeup-replay cycle",
	"SG203": "restart-intensity exhaustion reachable under the declared supervision",
	"SG204": "a mid-recovery fault strands a held descriptor",
}

// runCheck implements `sgc check`: the bounded exhaustive recovery model
// checker over specifications, with SWIFI-replayable counterexamples. The
// verdicts go to out and are the same bytes on every run; the wall-clock
// time each spec took goes to timing.
func runCheck(args []string, out, timing *os.File) error {
	fs := flag.NewFlagSet("sgc check", flag.ContinueOnError)
	useBuiltin := fs.Bool("builtin", false, "check the six built-in system-service specifications")
	descs := fs.Int("k", 0, "descriptor bound (default 2, max 3)")
	threads := fs.Int("m", 0, "thread bound (default 2, max 3)")
	policy := fs.String("policy", "", "supervision strategy (one-for-one, rest-for-one, all-for-one); empty = flat escalation ladder")
	failHard := fs.Bool("fail-hard", false, "check under a fail-hard recovery policy (exhaustion fails the call instead of degrading)")
	secondaries := fs.Int("secondaries", 0, "during-recovery secondary faults per episode (default 2)")
	maxStates := fs.Int("max-states", 0, "state budget, operational + episode (default 1<<20); exceeding it fails")
	budget := fs.Duration("budget", 0, "wall-clock budget per run (0 = none); exceeding it fails")
	runCodes := fs.String("run", "", "comma-separated diagnostic codes to report (default: all)")
	repro := fs.Bool("repro", false, "emit each violation's lowered SWIFI injection plan (seed, shape, trial schedule) as JSON")
	trajectory := fs.Bool("trajectory", false, "print the operational BFS state-count trajectory per spec")
	format := fs.String("format", "text", "output format: text or sarif")
	outPath := fs.String("o", "", "output file for -format sarif (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "sarif" {
		return fmt.Errorf("check: unknown format %q (want text or sarif)", *format)
	}
	sources, err := gatherSources(*useBuiltin, fs.Args())
	if err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("check: no input: pass .sg files or -builtin")
	}
	only := map[string]bool{}
	for _, c := range strings.Split(*runCodes, ",") {
		if c = strings.TrimSpace(c); c != "" {
			only[c] = true
		}
	}

	cfg := model.Config{
		Descs:       *descs,
		Threads:     *threads,
		FailHard:    *failHard,
		Supervision: *policy,
		Secondaries: *secondaries,
		MaxStates:   *maxStates,
		Deadline:    *budget,
	}
	var sb *sarif.Builder
	if *format == "sarif" {
		sb = sarif.NewBuilder("sgc-check", "docs/MODELCHECK.md")
		for id, desc := range modelRules {
			sb.Rule(id, desc)
		}
	}
	bad := false
	for _, s := range sources {
		spec, err := idl.Parse(s.service, s.src)
		if err != nil {
			return err
		}
		rep, err := model.Check(spec, cfg)
		if err != nil {
			return err
		}
		diags := rep.Diagnostics
		if len(only) > 0 {
			filtered := diags[:0:0]
			for _, d := range diags {
				if only[d.Code] {
					filtered = append(filtered, d)
				}
			}
			diags = filtered
		}
		if sb == nil {
			fmt.Fprintf(out, "%s: %d configurations (k=%d m=%d), %d episodes\n",
				s.service, rep.States, rep.Descs, rep.Threads, rep.Episodes)
			fmt.Fprintf(timing, "%s: checked in %v\n", s.service, rep.Elapsed.Round(time.Microsecond))
			if *trajectory {
				fmt.Fprintf(out, "%s: state-count trajectory %v (episode states %d)\n",
					s.service, rep.Trajectory, rep.EpisodeStates)
			}
			for _, p := range rep.Verified {
				fmt.Fprintf(out, "%s: verified %s\n", s.service, p)
			}
		}
		for _, d := range diags {
			if d.Severity == speclint.SevError {
				bad = true
			}
			if sb != nil {
				props := map[string]any{"witness": d.Witness}
				if d.Repro != nil {
					props["repro"] = d.Repro
				}
				sb.Add(d.Code, sarifLevel(d.Severity), fmt.Sprintf("%s: %s", d.Service, d.Message), s.path, 0, props)
				continue
			}
			fmt.Fprintln(out, d)
			for _, w := range d.Witness {
				fmt.Fprintf(out, "    %s\n", w)
			}
			if *repro && d.Repro != nil {
				if err := emitRepro(out, d.Repro); err != nil {
					return err
				}
			}
		}
	}
	if sb != nil {
		if err := writeOut(out, *outPath, sb.Write); err != nil {
			return err
		}
	}
	if bad {
		return fmt.Errorf("check found violations")
	}
	return nil
}

// emitRepro prints a violation's lowered SWIFI plan: the campaign recipe
// as JSON plus, when the service has a builtin workload, the concrete
// trial schedule the pinned seed draws.
func emitRepro(out *os.File, r *model.Repro) error {
	blob, err := json.MarshalIndent(r, "    ", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "    repro: %s\n", blob)
	cfg, err := r.CampaignConfig()
	if err != nil {
		fmt.Fprintf(out, "    trial schedule: not runnable (%v)\n", err)
		return nil
	}
	opp, err := swifi.Opportunities(cfg)
	if err != nil {
		return fmt.Errorf("repro dry run: %w", err)
	}
	for i, p := range swifi.PlanAt(cfg, opp, 0) {
		when := fmt.Sprintf("at target entry %d/%d", p.Moment, opp)
		if p.Deferred {
			when = "deferred until the first target entry of the next recovery epoch"
		}
		fmt.Fprintf(out, "    trial 0 fault %d: %s %s\n", i+1, p.Kind, when)
	}
	return nil
}
