// Package profflag gives the commands one shared pair of profiling
// flags, -cpuprofile and -memprofile, with the meaning `go test` gives
// them: a CPU profile of the whole run and a heap profile taken at the
// end. `go tool pprof -top <binary> <file>` reads either.
package profflag

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered flag values.
type Flags struct {
	cpu, mem *string
}

// Register adds the two flags to the default flag set; call it before
// flag.Parse.
func Register() *Flags {
	return &Flags{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: flag.String("memprofile", "", "write a heap profile (taken at exit, after a GC) to this file"),
	}
}

// Start begins the requested profiles (none requested: a no-op) and
// returns the function that finishes and writes them; the command
// defers it, so a run that ends in os.Exit writes no profile. Problems
// writing a profile at stop are reported on standard error: the run
// itself succeeded.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		if cpuFile, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if *f.mem != "" {
			if err := writeHeap(*f.mem); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
