// Command sgvet runs the SuperGlue static analyzers (determinism,
// atomicstate, stubdiscipline, shadowbuiltin, missingdoc, coreaffinity,
// threadbody) over package directories:
//
//	sgvet [-run a,b,c] dir [dir...]
//
// It prints one line per finding and exits nonzero if anything was
// reported. Analyzers that opt into test files (threadbody) also run over
// each directory's _test.go files. See internal/analysis/govet for the analyzer catalogue and the
// //sgvet:ignore suppression syntax.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"superglue/internal/analysis/govet"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sgvet", flag.ExitOnError)
	runList := fs.String("run", "", "comma-separated analyzers to run (default: all)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: sgvet [-run a,b,c] dir [dir...]")
		return 2
	}
	analyzers, err := govet.ByName(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgvet:", err)
		return 2
	}
	loader := govet.NewLoader()
	bad := false
	for _, dir := range fs.Args() {
		diags, err := vetDir(loader, dir, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgvet:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Println(d)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

// vetDir runs the analyzers over dir's package and the analyzers that opt
// into test files over its test variants. A directory holding only test
// files is fine when some analyzer opted in.
func vetDir(loader *govet.Loader, dir string, analyzers []*govet.Analyzer) ([]govet.Diagnostic, error) {
	var diags []govet.Diagnostic
	pkg, err := loader.Load(dir)
	switch {
	case err == nil:
		if diags, err = govet.Run(pkg, analyzers); err != nil {
			return nil, err
		}
	case !errors.Is(err, govet.ErrNoSource) || !anyTests(analyzers):
		return nil, err
	}
	tdiags, err := govet.TestDiagnostics(loader, dir, analyzers)
	if err != nil {
		return nil, err
	}
	return append(diags, tdiags...), nil
}

// anyTests reports whether some analyzer opted into test files.
func anyTests(analyzers []*govet.Analyzer) bool {
	for _, a := range analyzers {
		if a.Tests {
			return true
		}
	}
	return false
}
