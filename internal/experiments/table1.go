package experiments

import (
	"fmt"
	"time"

	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/model"
	"hop/internal/scenario"
)

// Table1 — Theoretical upper bounds on the iteration gap (§3-§4,
// Table 1), validated at runtime: for every synchronization setting the
// paper lists, run an adversarially slowed cluster with a frozen model
// and compare the maximum observed Iter(i)−Iter(j) for every adjacent
// ordered pair against the closed-form bound (the other pairs' bounds
// follow from these, core.TestBoundsComposeAlongPaths). A violation
// fails the experiment; the report shows how tight the adjacent-pair
// bounds are.
func Table1(scale Scale) (*Report, error) {
	rep := newReport("table1", "iteration-gap upper bounds, observed vs theoretical")
	deadline := 300 * time.Second
	if scale == Full {
		deadline = 900 * time.Second
	}

	settings := []struct {
		label string
		mut   func(*core.Config)
	}{
		{"standard", nil},
		{"bounded-staleness(s=2)", func(c *core.Config) { c.Staleness = 2; c.MaxIG = 12 }},
		{"backup+tokens(maxig=3)", func(c *core.Config) { c.MaxIG = 3; c.Backup = 1; c.SendCheck = true }},
		{"notify-ack", func(c *core.Config) { c.Mode = core.ModeNotifyAck }},
		{"tokens(maxig=2)", func(c *core.Config) { c.MaxIG = 2 }},
	}
	graphs := []*graph.Graph{graph.Ring(8), graph.RingBased(8)}

	for _, g := range graphs {
		for _, s := range settings {
			cfg := core.Config{Graph: g, Seed: 11}
			if s.mut != nil {
				s.mut(&cfg)
			}
			trainers := make([]model.Trainer, g.N())
			for i := range trainers {
				trainers[i] = model.NewFrozen([]float64{float64(i)})
			}
			res, err := cluster.Run(cluster.Options{
				Core:     cfg,
				Trainers: trainers,
				Compute:  hetero.Compute{Base: 100 * time.Millisecond, Slow: hetero.Deterministic{Factors: map[int]float64{0: 60}}},
				// Small payload: this experiment is about
				// synchronization, not bandwidth.
				PayloadBytes: 1 << 10,
				Deadline:     deadline,
				Seed:         12,
			})
			if err != nil {
				return nil, err
			}
			bounds := core.NewBounds(cfg)
			violations := 0
			maxAdjObserved, maxAdjBound := 0, 0
			for i := 0; i < g.N(); i++ {
				for _, j := range g.Neighbors(i) {
					obs := res.Engine.Gaps().MaxGap(i, j)
					bound := bounds.Gap(i, j)
					if obs > bound {
						violations++
					}
					if g.HasEdge(j, i) {
						if obs > maxAdjObserved {
							maxAdjObserved = obs
						}
						if bound != core.Unbounded && bound > maxAdjBound {
							maxAdjBound = bound
						}
					}
				}
			}
			label := fmt.Sprintf("%s/%s", g.Name, s.label)
			rep.printf("%-44s adjacent max observed=%-3d bound=%-3d violations=%d\n",
				label, maxAdjObserved, maxAdjBound, violations)
			rep.metric(key(label, "violations"), float64(violations))
			rep.metric(key(label, "max-adjacent-gap"), float64(maxAdjObserved))
			if violations > 0 {
				return rep, fmt.Errorf("table1: %s violated the Table 1 bound %d time(s)", label, violations)
			}
		}
	}
	rep.printf("all observed gaps within the Table 1 bounds\n")
	return rep, nil
}

// FigDeadlock — §5's AD-PSGD criticism as a runnable demonstration,
// two specs of the adpsgd protocol mode. On the bipartite ring-6
// colour 0 initiates and colour 1 serves, and every worker completes;
// the odd ring-7 has no bipartition, so every worker initiates, blocks
// for its reply without serving, and the simulation kernel reports the
// deadlock with every worker named. Not a numbered figure in the
// paper, but a claim its §5 argument rests on.
func FigDeadlock(scale Scale) (*Report, error) {
	rep := newReport("deadlock", "AD-PSGD deadlock demonstration (§5)")
	ring := func(n int) scenario.Spec {
		return scenario.Spec{
			Workload:    "quadratic",
			Topology:    scenario.Topology{Kind: "ring", Workers: n, Machines: 1},
			Protocol:    scenario.Protocol{Mode: "adpsgd"},
			ComputeBase: scenario.Duration(50 * time.Millisecond),
			MaxIter:     40,
			Seed:        13,
		}
	}
	even, err := runSpec(ring(6))
	if err != nil {
		return nil, err
	}
	rep.printf("bipartite ring-6 (colour 0 initiates, colour 1 serves): completed %d iterations, final loss %.4f\n",
		even.Metrics.Iterations(), even.Trainers[0].EvalLoss())
	rep.metric("bipartite-iterations", float64(even.Metrics.Iterations()))

	opts, err := ring(7).Resolve()
	if err != nil {
		return nil, err
	}
	odd, err := cluster.Run(opts)
	if err != nil {
		return nil, err
	}
	if odd.Deadlock == nil {
		return rep, fmt.Errorf("deadlock demo: AD-PSGD on the odd ring-7 completed")
	}
	rep.printf("odd ring-7 (every worker initiates): DEADLOCK at t=%v (%v)\n", odd.Duration, odd.Deadlock)
	rep.metric("odd-ring-deadlocked", 1)
	return rep, nil
}
