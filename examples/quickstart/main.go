// Quickstart: decentralized training of a toy quadratic objective on a
// ring of 8 workers, once homogeneous and once with random slowdowns
// mitigated by backup workers — the smallest end-to-end tour of the
// public API.
package main

import (
	"fmt"
	"log"
	"time"

	"hop"
	"hop/internal/hetero"
)

func run(label string, slow hop.Slowdown, mutate func(*hop.Config)) {
	g := hop.RingBased(8)
	hop.PlaceEvenly(g, 2)

	cfg := hop.Config{
		Graph: g,
		Seed:  1,
	}
	if mutate != nil {
		mutate(&cfg)
	}

	res, err := hop.Run(hop.Options{
		Core:         cfg,
		Trainer:      hop.NewQuadratic([]float64{5, 5, 5, 5}, []float64{1, 2, 0, -1}, 0.2, 0.05),
		Compute:      hetero.Compute{Base: 100 * time.Millisecond, Slow: slow},
		PayloadBytes: 1 << 20,
		Deadline:     20 * time.Second, // virtual time
		Seed:         2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s iterations=%-5d mean-iter=%-8v final-loss=%.5f max-gap=%d\n",
		label,
		res.Metrics.Iterations(),
		res.Metrics.MeanIterDurationAll(2).Round(time.Millisecond),
		res.Metrics.Eval.Last(-1),
		res.Engine.Gaps().MaxGapOverall())
}

func main() {
	fmt.Println("Hop quickstart: 8 workers, ring-based topology, quadratic toy objective")
	fmt.Println()
	run("homogeneous/standard", hop.NoSlowdown(), nil)
	run("6x-random/standard", hop.RandomSlowdown(6, 1.0/8), nil)
	run("6x-random/backup-workers", hop.RandomSlowdown(6, 1.0/8), func(c *hop.Config) {
		c.MaxIG = 4  // token queues bound the iteration gap (§4.2)
		c.Backup = 1 // tolerate one slow in-neighbor (§4.3)
		c.SendCheck = true
	})
	fmt.Println()
	fmt.Println("Backup workers recover most of the slowdown-induced loss of throughput.")
}
