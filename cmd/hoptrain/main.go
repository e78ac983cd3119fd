// Command hoptrain runs one simulated decentralized training job with
// fully configurable topology, protocol, workload and heterogeneity.
// The job is a declarative scenario spec (DESIGN.md §4): the built-in
// default or a -scenario file, with every explicitly-set flag applied
// as an override, so a flag line and the equivalent spec file print
// identical output.
//
// Examples:
//
//	hoptrain -graph ring-based -workers 16 -machines 4 \
//	         -workload cnn -slow random -factor 6 \
//	         -maxig 4 -backup 1 -send-check -deadline 500s
//
//	hoptrain -graph ring -workload svm -slow det -slow-worker 0 -factor 4 \
//	         -maxig 4 -backup 1 -send-check -max-jump 10 -deadline 60s
//
//	hoptrain -scenario spec.json             # a committed spec
//	hoptrain -scenario spec.json -backup 2   # the same spec, one axis overridden
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hop"
	"hop/cmd/internal/profflag"
	"hop/cmd/internal/specflag"
	"hop/internal/core"
	"hop/internal/counters"
)

func main() {
	var (
		computeWorkers = flag.Int("compute-workers", 0, "how many simulated workers' gradient steps run at once (0 = GOMAXPROCS); results are bit-identical at any width")
		series         = flag.Bool("series", false, "print the eval-loss series")
		liveRun        = flag.Bool("live", false, "run the spec as a live loopback TCP cluster instead of simulating it (needs -iters or a spec with max_iter)")
		timeScale      = flag.Float64("time-scale", 1, "with -live: scale the spec's injected heterogeneity delay")
	)
	// The paper's core setting (§7.2): CNN, 16 workers on 4 machines.
	specFlags := specflag.Register(flag.CommandLine, hop.Scenario{
		Workload: "cnn",
		Topology: hop.ScenarioTopology{Kind: "ring-based", Workers: 16, Machines: 4},
		Deadline: hop.ScenarioDuration(300 * time.Second),
		Seed:     1,
	})
	prof := profflag.Register()
	flag.Parse()
	hop.SetComputeWorkers(*computeWorkers)
	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer stopProf()

	spec, err := specFlags.Spec()
	if err != nil {
		fail(err)
	}
	if *liveRun {
		res, err := hop.RunScenarioLive(spec, hop.ScenarioLiveOptions{TimeScale: *timeScale})
		if err != nil {
			fail(err)
		}
		printLiveResult(res)
		return
	}
	res, err := hop.RunScenario(spec) // resolves, runs, rejects deadlocks
	if err != nil {
		fail(err)
	}
	g, err := spec.Topology.BuildSeeded(spec.Seed)
	if err != nil {
		fail(err)
	}
	printResult(g, res, *series)
}

// printResult renders the standard run summary.
func printResult(g *hop.Graph, res *hop.Result, series bool) {
	fmt.Printf("graph:            %s\n", g)
	fmt.Printf("virtual duration: %v\n", res.Duration)
	fmt.Printf("iterations:       %d total, %d on slowest worker\n",
		res.Metrics.Iterations(), res.Metrics.MinWorkerIterations())
	fmt.Printf("mean iteration:   %v\n", res.Metrics.MeanIterDurationAll(2).Round(time.Millisecond))
	fmt.Printf("final eval loss:  %.4f\n", res.Metrics.Eval.Last(-1))
	fmt.Printf("max iteration gap:%d\n", res.Engine.Gaps().MaxGapOverall())
	fmt.Printf("protocol:         %s\n", counters.String(res.Engine.Stats()))
	fmt.Printf("network:          %s\n", counters.String(res.Fabric.Stats()))
	if series {
		res.Metrics.Eval.Render(os.Stdout)
	}
}

// printLiveResult renders the loopback-cluster run summary.
func printLiveResult(res *hop.LiveClusterResult) {
	n := len(res.Workers)
	fmt.Printf("live loopback cluster: %d workers\n", n)
	fmt.Printf("wall-clock duration:   %v\n", res.Duration.Round(time.Millisecond))
	var ps core.Stats
	maxLoss := 0.0
	for _, w := range res.Workers {
		counters.Add(&ps, w.Stats())
		if l := w.Trainer().EvalLoss(); l > maxLoss {
			maxLoss = l
		}
	}
	fmt.Printf("worst eval loss:       %.4f\n", maxLoss)
	fmt.Printf("protocol:              %s\n", counters.String(ps))
	fmt.Printf("wire:                  %s\n", counters.String(res.WireStats()))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hoptrain:", err)
	os.Exit(1)
}
