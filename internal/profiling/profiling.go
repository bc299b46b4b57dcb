// Package profiling wraps a command's run in the standard library's
// profilers, behind the -cpuprofile and -memprofile flags that
// cmd/swifi, cmd/webbench and cmd/benchjson share. Profiles measure the
// host's wall-clock side of a run; the simulation's own accounting is
// virtual time and stays in the traces.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Run runs body under the standard library's profilers: a CPU profile of
// the whole run to cpuFile, and a heap profile (live and allocated bytes
// by call stack) to memFile, written once body has returned, so it
// covers all of the run. An empty name skips that profile. Read either
// with `go tool pprof`.
func Run(cpuFile, memFile string, body func() error) (err error) {
	if cpuFile != "" {
		f, cerr := os.Create(cpuFile)
		if cerr != nil {
			return fmt.Errorf("cpu profile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", cerr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("cpu profile: %w", cerr))
			}
		}()
	}
	err = body()
	if memFile != "" {
		if merr := writeHeapProfile(memFile); merr != nil {
			err = errors.Join(err, merr)
		}
	}
	return err
}

// writeHeapProfile writes the heap profile to path after a collection,
// so the live-heap figures are current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memory profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memory profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memory profile: %w", err)
	}
	return nil
}
