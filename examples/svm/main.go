// SVM example: the paper's sparse linear workload (webspam stand-in,
// log loss) trained with bounded staleness (§4.4) under random
// slowdowns, compared against the standard protocol and NOTIFY-ACK.
package main

import (
	"fmt"
	"log"
	"time"

	"hop"
	"hop/internal/hetero"
)

func run(label string, mutate func(*hop.Config)) {
	g := hop.RingBased(16)
	hop.PlaceEvenly(g, 4)
	cfg := hop.Config{Graph: g, Seed: 21}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := hop.Run(hop.Options{
		Core:         cfg,
		Trainer:      hop.NewSVM(hop.DefaultSVMConfig()),
		Compute:      hetero.Compute{Base: 100 * time.Millisecond, Slow: hop.RandomSlowdown(6, 1.0/16)},
		PayloadBytes: 1400 << 10, // webspam-scale dense weight vector
		Deadline:     30 * time.Second,
		EvalEvery:    10,
		Seed:         22,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s iters=%-5d mean-iter=%-7v final-loss=%.4f max-gap=%d\n",
		label, res.Metrics.Iterations(),
		res.Metrics.MeanIterDurationAll(2).Round(time.Millisecond),
		res.Metrics.Eval.Last(-1),
		res.Engine.Gaps().MaxGapOverall())
}

func main() {
	fmt.Println("SVM workload (synthetic webspam stand-in, log loss), 6x random slowdown")
	fmt.Println()
	run("notify-ack", func(c *hop.Config) { c.Mode = hop.ModeNotifyAck })
	run("standard", nil)
	run("staleness-5", func(c *hop.Config) { c.MaxIG = 8; c.Staleness = 5 })
	run("backup-1", func(c *hop.Config) { c.MaxIG = 4; c.Backup = 1; c.SendCheck = true })
	fmt.Println()
	fmt.Println("Bounded staleness and backup workers tolerate transient stragglers that")
	fmt.Println("stall NOTIFY-ACK and the standard protocol (paper Fig. 17).")
}
