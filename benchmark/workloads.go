package main

import (
	"embed"
	"fmt"

	"hop"
)

//go:embed workloads/*.json
var specFiles embed.FS

// Workload is one committed scenario spec plus what the harness needs
// to run and judge it. The program under test sees only the spec.
type Workload struct {
	Name string
	// Why is the one-line reason this workload exists (BENCHMARK.json
	// carries the same sentence; README.md the long form).
	Why string
	// Live runs the spec on loopback TCP instead of the simulator.
	Live bool
	// TimeScale scales the injected heterogeneity sleeps of a live run
	// (ScenarioLiveOptions.TimeScale); 0 means 1.
	TimeScale float64
	// Deterministic says the run's outputs must repeat at a given seed:
	// every simulated run exactly (its fingerprint), and the live specs
	// whose protocol decisions are timing-forced (DESIGN.md §5) in their
	// update count and, to LossTolerance, their final losses.
	Deterministic bool
	// LossTolerance is how closely (relative) a deterministic live
	// workload's final losses repeat across repetitions.
	LossTolerance float64
	// ExpectRunS is the run's duration at the commit that defined the
	// benchmark; the watchdog kills a run at ten times it.
	ExpectRunS float64
}

// workloads lists the benchmark's workloads in report order.
var workloads = []Workload{
	{
		Name:          "sim-cnn-hetero16",
		Why:           "paper core setting (CNN, 16 workers, 6x random stragglers) on the simulator: model/nn/tensor do ~90% of the work",
		Deterministic: true,
		ExpectRunS:    6,
	},
	{
		Name:          "sim-scale-ring1024",
		Why:           "toy model on a 1024-worker ring: sim, netsim, core and cluster do all the work, compute-plane changes must not move it",
		Deterministic: true,
		ExpectRunS:    6,
	},
	{
		Name:          "live-ring4-svm-none",
		Why:           "4 TCP workers, 32 KiB uncompressed updates: transport framing, CRC, socket I/O, core queues and tensor.Mean dominate",
		Live:          true,
		Deterministic: true,
		// Forced decisions, but a reduce sums its updates in arrival
		// order and float addition is not associative: runs differ in
		// the last few bits (about 1e-15 relative).
		LossTolerance: 1e-9,
		ExpectRunS:    6,
	},
	{
		Name:          "live-ring4-svm-topk",
		Why:           "same cluster with topk:0.1: small frames, delta encoder and quickselect take the CPU; read with live-ring4-svm-none as a pair",
		Live:          true,
		Deterministic: true,
		// Top-k selection is discrete, so the same arrival-order rounding
		// can flip which coordinate a frame keeps, and the error-feedback
		// streams part ways from there. Observed: seed 10 lands on one of
		// two outcomes 1.8e-3 apart (9 vs 15 of 24 runs), each
		// bit-identical within itself; seed 7 on one.
		LossTolerance: 1e-2,
		ExpectRunS:    6,
	},
	{
		Name:       "live-ring4-straggler-skip",
		Why:        "4x straggler with backup workers and skipping on real sockets: run time is set by sleeps and core decisions, not by CPU",
		Live:       true,
		TimeScale:  0.1,
		ExpectRunS: 6,
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Spec loads the workload's committed scenario and overwrites its seed
// — the only input the benchmark varies.
func (w Workload) Spec(seed int64) (hop.Scenario, error) {
	data, err := specFiles.ReadFile("workloads/" + w.Name + ".json")
	if err != nil {
		return hop.Scenario{}, err
	}
	spec, err := hop.ParseScenario(data)
	if err != nil {
		return hop.Scenario{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	spec.Seed = seed
	return spec, nil
}
