// Command benchmark is the repository's end-to-end benchmark: five
// committed scenario specs run on the deterministic simulator and on
// the live TCP plane, eight end-to-end metrics with regression bounds,
// and a per-layer budget measured from outside the program. README.md
// in this directory says what each workload and metric is for;
// BENCHMARK.json at the repository root is the same contract in the
// form the driver reads.
//
//	go run . [--workload name] [--seed 7] [--reps 5] [--out out]
//	    the whole suite: set-up probes and timed repetitions interleaved
//	    round-robin across workloads, then one traced run and the
//	    isolated layer timings per workload; prints every metric and
//	    writes <out>/results.json and <out>/<workload>.trace.json.
//
//	go run . --workload name --seed n --seconds s --trace 0|1
//	    one driver run of one workload: at least s seconds of timed
//	    repetitions (trace 0, end-to-end metrics) or one reference and
//	    one traced repetition (trace 1, per-layer metrics). The last
//	    line of standard output is the result as one JSON object.
//
//	go run . compare parent.json change.json
//	    applies every end-to-end bound to two results files.
//
// The program exits non-zero when a correctness check fails or compare
// finds a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(harnessMain(os.Args[1:]))
}

// childMain is one run in this process; its standard output is the
// RunReport.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	mode := fs.String("mode", modeRun, "run | setup | traced")
	seed := fs.Int64("seed", 7, "scenario seed")
	traceOut := fs.String("trace-out", "", "span file to write in traced mode")
	fs.Parse(args)
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	rep := runWorkload(w, *mode, *seed, *traceOut)
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare parent.json change.json")
		return 2
	}
	var files [2]*Results
	for i, path := range args {
		r, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		files[i] = r
	}
	if regressions, _ := compareResults(os.Stdout, files[0], files[1]); regressions > 0 {
		return 1
	}
	return 0
}

// maxDriverReps caps the timed repetitions of one driver run, so a
// program that got much faster cannot stretch an invocation.
const maxDriverReps = 5

// probesPerRep is how many set-up probes accompany each timed
// repetition; set-up lasts milliseconds, so its median wants more
// samples than the runs do.
const probesPerRep = 2

func harnessMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 7, "scenario seed; overwrites each spec's seed")
	reps := fs.Int("reps", 5, "timed repetitions per workload (suite mode)")
	out := fs.String("out", "out", "directory for results.json and trace files")
	seconds := fs.Float64("seconds", 0, "driver mode: measure at least this many seconds of timed runs")
	trace := fs.Int("trace", 0, "driver mode: 0 reports end-to-end metrics, 1 per-layer metrics")
	fs.Parse(args)

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		selected = []Workload{w}
	}
	driver := *seconds > 0
	if driver && len(selected) != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds needs --workload")
		return 2
	}
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// The isolated layer timings run in this process: give it the
	// children's width.
	runtime.GOMAXPROCS(childProcs())
	h := &Harness{Exe: exe, OutDir: *out, Seed: *seed}

	ms := make([]*measurement, len(selected))
	for i, w := range selected {
		ms[i] = &measurement{w: w}
	}
	results := &Results{Meta: newMeta(*seed), Workloads: map[string]*WorkloadResult{}}
	switch {
	case driver && *trace == 0:
		m := ms[0]
		var measured float64
		for rep := 0; rep < maxDriverReps && measured < *seconds; rep++ {
			for p := 0; p < probesPerRep; p++ {
				h.probe(m)
			}
			r := h.timedRun(m)
			if r.Failed() {
				break // a failing workload is not worth more minutes
			}
			measured += r.RunS
			results.Meta.Reps++
		}
	case driver:
		h.timedRun(ms[0])
		h.tracedRun(ms[0], paceShort)
		results.Meta.Reps = 1
	default:
		// Round-robin, so machine drift hits every workload equally.
		for rep := 0; rep < *reps; rep++ {
			h.logf("repetition %d/%d", rep+1, *reps)
			for _, m := range ms {
				h.probe(m)
				h.timedRun(m)
			}
		}
		h.logf("traced runs and isolated layer timings")
		for _, m := range ms {
			h.tracedRun(m, paceFull)
		}
		results.Meta.Reps = *reps
	}

	ok := true
	for _, m := range ms {
		res := m.fold()
		results.Workloads[m.w.Name] = res
		ok = ok && res.Failed == 0
	}
	file := "results.json"
	if driver {
		file = selected[0].Name + ".result.json"
	}
	if err := results.write(filepath.Join(*out, file)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	results.printTable(os.Stdout, selected)
	if driver {
		if err := results.Workloads[selected[0].Name].printDriverLine(os.Stdout, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if !ok {
		return 1
	}
	return 0
}
