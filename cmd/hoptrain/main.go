// Command hoptrain runs one simulated decentralized training job with
// fully configurable topology, protocol, workload and heterogeneity.
//
// Examples:
//
//	hoptrain -graph ring-based -workers 16 -machines 4 \
//	         -workload cnn -slow random -factor 6 \
//	         -maxig 4 -backup 1 -deadline 500s
//
//	hoptrain -graph ring -workload svm -slow det -slow-worker 0 -factor 4 \
//	         -maxig 4 -backup 1 -skip -max-jump 10 -deadline 60s
//
//	hoptrain -scenario spec.json    # the same run from a declarative spec
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hop"
	"hop/cmd/internal/profflag"
	"hop/internal/hetero"
)

func main() {
	var (
		graphKind = flag.String("graph", "ring-based", "ring | ring-based | double-ring | complete | setting1 | setting2 | setting3")
		workers   = flag.Int("workers", 16, "worker count (ignored by settingN graphs)")
		machines  = flag.Int("machines", 4, "machine count for placement")
		workload  = flag.String("workload", "cnn", "cnn | svm | quadratic")

		protocol  = flag.String("protocol", "standard", "standard | notify-ack | prague")
		serial    = flag.Bool("serial", false, "serial computation graph (Fig. 2a)")
		maxIG     = flag.Int("maxig", 0, "token-queue max iteration gap (0 = no token queues)")
		backup    = flag.Int("backup", 0, "backup workers N_buw")
		staleness = flag.Int("staleness", -1, "staleness bound s (-1 = disabled)")
		sendCheck = flag.Bool("send-check", false, "§6.2(b) receiver-iteration send check")
		skip      = flag.Bool("skip", false, "enable skipping iterations (§5)")
		maxJump   = flag.Int("max-jump", 10, "max iterations per jump")
		trigger   = flag.Int("trigger", 2, "iterations behind out-neighbors before jumping")

		groupSize   = flag.Int("group-size", 4, "with -protocol prague: partial all-reduce group size")
		groupQuorum = flag.Int("group-quorum", 0, "with -protocol prague: member updates a reduce waits for (0 = full group)")

		slow       = flag.String("slow", "none", "none | random | det")
		factor     = flag.Float64("factor", 6, "slowdown factor")
		prob       = flag.Float64("prob", 0, "random slowdown probability (default 1/workers)")
		slowWorker = flag.Int("slow-worker", 0, "worker for deterministic slowdown")

		computeWorkers = flag.Int("compute-workers", 0, "compute-plane width for tensor kernels (0 = GOMAXPROCS); results are bit-identical at any width")

		compute  = flag.Duration("compute", 0, "base compute time per iteration (default per workload)")
		payload  = flag.Int("payload", 0, "update payload bytes (default per workload)")
		deadline = flag.Duration("deadline", 300*time.Second, "virtual-time deadline (0 = use -iters)")
		iters    = flag.Int("iters", 0, "max iterations per worker (0 = run to deadline)")
		seed     = flag.Int64("seed", 1, "seed")
		series   = flag.Bool("series", false, "print the eval-loss series")

		scenarioFile = flag.String("scenario", "", "run a declarative scenario JSON spec instead of assembling one from flags (DESIGN.md §4)")
		liveRun      = flag.Bool("live", false, "with -scenario: run the spec as a live loopback TCP cluster instead of simulating it")
		timeScale    = flag.Float64("time-scale", 1, "with -live: scale the spec's injected heterogeneity delay")
	)
	prof := profflag.Register()
	flag.Parse()
	hop.SetComputeWorkers(*computeWorkers)
	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer stopProf()

	if *liveRun && *scenarioFile == "" {
		fail(fmt.Errorf("-live requires -scenario (live clusters run declarative specs; see DESIGN.md §5)"))
	}
	if *scenarioFile != "" {
		data, err := os.ReadFile(*scenarioFile)
		if err != nil {
			fail(err)
		}
		spec, err := hop.ParseScenario(data)
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
		return
	}

	g, err := buildGraph(*graphKind, *workers, *machines)
	if err != nil {
		fail(err)
	}

	var trainer hop.Trainer
	computeBase := *compute
	payloadBytes := *payload
	switch *workload {
	case "cnn":
		trainer = hop.NewCNN(hop.DefaultCNNConfig())
		if computeBase == 0 {
			computeBase = 4 * time.Second
		}
		if payloadBytes == 0 {
			payloadBytes = 37 << 20
		}
	case "svm":
		trainer = hop.NewSVM(hop.DefaultSVMConfig())
		if computeBase == 0 {
			computeBase = 100 * time.Millisecond
		}
		if payloadBytes == 0 {
			payloadBytes = 1400 << 10
		}
	case "quadratic":
		trainer = hop.NewQuadratic([]float64{5, 5, 5, 5}, []float64{1, 2, 0, -1}, 0.2, 0.05)
		if computeBase == 0 {
			computeBase = 100 * time.Millisecond
		}
		if payloadBytes == 0 {
			payloadBytes = 1 << 16
		}
	default:
		fail(fmt.Errorf("unknown workload %q", *workload))
	}

	var slowModel hop.Slowdown
	switch *slow {
	case "none":
		slowModel = hop.NoSlowdown()
	case "random":
		p := *prob
		if p == 0 {
			p = 1.0 / float64(g.N())
		}
		slowModel = hop.RandomSlowdown(*factor, p)
	case "det":
		slowModel = hop.DeterministicSlowdown(map[int]float64{*slowWorker: *factor})
	default:
		fail(fmt.Errorf("unknown slowdown %q", *slow))
	}

	cfg := hop.Config{
		Graph:     g,
		Serial:    *serial,
		MaxIG:     *maxIG,
		Backup:    *backup,
		Staleness: *staleness,
		SendCheck: *sendCheck,
		MaxIter:   *iters,
		Seed:      *seed,
	}
	switch *protocol {
	case "standard":
	case "notify-ack":
		cfg.Mode = hop.ModeNotifyAck
	case "prague":
		cfg.Mode = hop.ModePrague
		cfg.Prague = &hop.PragueConfig{
			GroupSize: *groupSize,
			Quorum:    *groupQuorum,
			Seed:      500 + *seed,
		}
	default:
		fail(fmt.Errorf("unknown protocol %q", *protocol))
	}
	if *skip {
		cfg.Skip = &hop.SkipConfig{MaxJump: *maxJump, TriggerBehind: *trigger}
	}

	res, err := hop.Run(hop.Options{
		Core:         cfg,
		Trainer:      trainer,
		Compute:      hetero.Compute{Base: computeBase, Slow: slowModel},
		PayloadBytes: payloadBytes,
		Deadline:     *deadline,
		Seed:         *seed + 1000,
	})
	if err != nil {
		fail(err)
	}
	if res.Deadlock != nil {
		fail(fmt.Errorf("run deadlocked: %v", res.Deadlock))
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
	st := res.Engine.Stats()
	fmt.Printf("protocol stats:   jumps=%d skipped=%d suppressed-sends=%d\n",
		st.Jumps, st.IterationsSkipped, st.SendsSuppressed)
	fs := res.Fabric.Stats()
	fmt.Printf("network:          %d msgs, %.1f MB (%.1f MB inter-machine)\n",
		fs.Messages, float64(fs.Bytes)/1e6, float64(fs.InterBytes)/1e6)
	if series {
		res.Metrics.Eval.Render(os.Stdout)
	}
}

// printLiveResult renders the loopback-cluster run summary.
func printLiveResult(res *hop.LiveClusterResult) {
	n := len(res.Workers)
	fmt.Printf("live loopback cluster: %d workers\n", n)
	fmt.Printf("wall-clock duration:   %v\n", res.Duration.Round(time.Millisecond))
	var jumps, skipped int
	maxLoss := 0.0
	for _, w := range res.Workers {
		st := w.Stats()
		jumps += st.Jumps
		skipped += st.IterationsSkipped
		if l := w.Trainer().EvalLoss(); l > maxLoss {
			maxLoss = l
		}
	}
	fmt.Printf("worst eval loss:       %.4f\n", maxLoss)
	fmt.Printf("protocol stats:        jumps=%d skipped=%d\n", jumps, skipped)
	ws := res.WireStats()
	fmt.Printf("wire:                  %d updates in %d frames, %.1f MB sent (%.1fx payload compression), read errors %d\n",
		ws.UpdatesSent, ws.FramesSent, float64(ws.BytesSent)/1e6, ws.CompressionRatio(), ws.ReadErrors)
}

func buildGraph(kind string, workers, machines int) (*hop.Graph, error) {
	switch kind {
	case "setting1":
		return hop.Setting1(), nil
	case "setting2":
		return hop.Setting2(), nil
	case "setting3":
		return hop.Setting3(), nil
	}
	var g *hop.Graph
	switch kind {
	case "ring":
		g = hop.Ring(workers)
	case "ring-based":
		g = hop.RingBased(workers)
	case "double-ring":
		g = hop.DoubleRing(workers)
	case "complete":
		g = hop.Complete(workers)
	default:
		return nil, fmt.Errorf("unknown graph %q", kind)
	}
	hop.PlaceEvenly(g, machines)
	return g, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hoptrain:", err)
	os.Exit(1)
}
