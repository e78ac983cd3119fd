// CNN example: the paper's headline scenario (§7.3.3) on the
// image-classification workload — 16 workers over 4 machines,
// ring-based topology, 6x random slowdowns, standard decentralized
// training versus backup workers, and a deterministic straggler
// rescued by skipping iterations (§5).
package main

import (
	"fmt"
	"log"
	"time"

	"hop"
	"hop/internal/hetero"
)

const (
	workers  = 16
	machines = 4
	deadline = 400 * time.Second // virtual
)

func run(label string, slow hop.Slowdown, mutate func(*hop.Config)) {
	g := hop.RingBased(workers)
	hop.PlaceEvenly(g, machines)
	cfg := hop.Config{Graph: g, Seed: 11}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := hop.Run(hop.Options{
		Core:         cfg,
		Trainer:      hop.NewCNN(hop.DefaultCNNConfig()),
		Compute:      hetero.Compute{Base: 4 * time.Second, Slow: slow}, // VGG11-on-CPU scale
		PayloadBytes: 37 << 20,                                          // VGG11-CIFAR fp32 model
		Deadline:     deadline,
		EvalEvery:    5,
		Seed:         12,
	})
	if err != nil {
		log.Fatal(err)
	}
	tt := "-"
	if v, ok := res.Metrics.Eval.TimeToValue(0.9); ok {
		tt = fmt.Sprintf("%.0fs", v.Seconds())
	}
	fmt.Printf("%-32s iters=%-5d mean-iter=%-8v time-to-0.9=%-6s final-loss=%.4f jumps=%d\n",
		label, res.Metrics.Iterations(),
		res.Metrics.MeanIterDurationAll(2).Round(time.Millisecond),
		tt, res.Metrics.Eval.Last(-1), res.Engine.Stats().Jumps)
}

func main() {
	fmt.Println("CNN workload (synthetic CIFAR stand-in), 16 workers / 4 machines / 1GbE")
	fmt.Println()

	random := hop.RandomSlowdown(6, 1.0/workers)
	run("homogeneous", hop.NoSlowdown(), nil)
	run("6x-random standard", random, nil)
	run("6x-random backup-1", random, func(c *hop.Config) {
		c.MaxIG, c.Backup, c.SendCheck = 4, 1, true
	})

	straggler := hop.DeterministicSlowdown(map[int]float64{0: 4})
	run("4x-straggler backup-1", straggler, func(c *hop.Config) {
		c.MaxIG, c.Backup, c.SendCheck = 4, 1, true
	})
	run("4x-straggler backup+skip-10", straggler, func(c *hop.Config) {
		c.MaxIG, c.Backup, c.SendCheck, c.MaxJump = 4, 1, true, 10
	})
	fmt.Println()
	fmt.Println("Skipping iterations almost fully hides a deterministic straggler (paper Fig. 18-19).")
}
