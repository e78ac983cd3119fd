// Command hopbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hopbench -exp fig14            # one experiment, quick scale
//	hopbench -exp all -scale full  # everything, EXPERIMENTS.md scale
//	hopbench -exp fig12 -series    # also dump the raw loss series
//	hopbench -list                 # list experiment ids
//	hopbench -exp fig12 -cpuprofile cpu.prof   # profile the run (also -memprofile)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hop/cmd/internal/profflag"
	"hop/internal/experiments"
	"hop/internal/tensor"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (figNN, table1, deadlock) or 'all'")
		scale   = flag.String("scale", "quick", "quick or full")
		series  = flag.Bool("series", false, "dump raw recorded series after each report")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		workers = flag.Int("compute-workers", 0, "how many simulated workers' gradient steps run at once (0 = GOMAXPROCS); reports are byte-identical at any width")
	)
	prof := profflag.Register()
	flag.Parse()
	tensor.SetWorkers(*workers)

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "hopbench: unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}

	var entries []experiments.Entry
	if *exp == "all" {
		entries = experiments.Registry
	} else {
		e, err := experiments.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hopbench:", err)
			os.Exit(2)
		}
		entries = []experiments.Entry{e}
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hopbench:", err)
		os.Exit(2)
	}
	failed := runAll(os.Stdout, entries, sc, *series)
	stopProf() // not deferred: a failed experiment still exits non-zero below
	if failed > 0 {
		os.Exit(1)
	}
}

// runAll runs the experiments, writing their reports to w, and returns
// how many failed — a report that could not be written (stdout on a
// full disk, a closed pipe) counts as a failure.
func runAll(w io.Writer, entries []experiments.Entry, sc experiments.Scale, series bool) int {
	failed := 0
	for _, e := range entries {
		start := time.Now()
		rep, err := e.Run(sc)
		if rep != nil {
			_, werr := rep.WriteTo(w)
			err = errors.Join(err, werr)
			if series {
				rep.RenderSeries(w)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hopbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "[%s done in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return failed
}
