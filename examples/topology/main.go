// Topology example: spectral-gap analysis of the paper's graphs
// (Figure 11 and Figure 21) plus a custom placement-aware graph, and
// the Table 1 iteration-gap bounds they induce.
package main

import (
	"fmt"

	"hop"
	"hop/internal/core"
	"hop/internal/graph"
)

func describe(g *hop.Graph) {
	fmt.Printf("%-34s diameter=%-3d bipartite=%-5v gap(uniform)=%.4f gap(metropolis)=%.4f\n",
		g.String(), g.Diameter(), g.IsBipartite(),
		hop.SpectralGap(g.UniformWeights()),
		hop.SpectralGap(g.MetropolisWeights()))
}

func main() {
	fmt.Println("Figure 11 graphs (16 workers):")
	for _, g := range []*hop.Graph{hop.Ring(16), hop.RingBased(16), hop.DoubleRing(16), hop.Complete(16)} {
		describe(g)
	}

	fmt.Println()
	fmt.Println("Figure 21 settings (8 workers on 3 machines):")
	for _, g := range []*hop.Graph{hop.Setting1(), hop.Setting2(), hop.Setting3()} {
		describe(g)
	}

	fmt.Println()
	fmt.Println("Custom graph: two all-reduce islands bridged by one edge:")
	g := hop.NewGraph("two-islands", 8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddBiEdge(i, j)
			g.AddBiEdge(i+4, j+4)
		}
	}
	g.AddBiEdge(3, 4)
	describe(g)

	fmt.Println()
	fmt.Println("Table 1 bounds on ring-8 (how far worker 1 can run ahead of worker 0):")
	for _, row := range []struct {
		label string
		cfg   core.Config
	}{
		{"standard", core.Config{Graph: hop.Ring(8)}},
		{"staleness s=2", core.Config{Graph: hop.Ring(8), Staleness: 2}},
		{"tokens max_ig=3", core.Config{Graph: hop.Ring(8), MaxIG: 3}},
		{"backup + tokens", core.Config{Graph: hop.Ring(8), MaxIG: 3, Backup: 1}},
		{"notify-ack", core.Config{Graph: hop.Ring(8), Mode: core.ModeNotifyAck}},
	} {
		b := hop.NewBounds(row.cfg)
		fmt.Printf("  %-18s Iter(1)-Iter(0) <= %s\n", row.label, boundStr(b.Gap(1, 0)))
	}
	_ = graph.Chain // referenced to show the package is available for custom graphs
}

func boundStr(v int) string {
	if v >= hop.Unbounded {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}
