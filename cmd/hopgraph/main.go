// Command hopgraph inspects the communication topology and protocol
// configuration of a scenario spec: spectral gaps, diameter,
// neighborhoods and the Table 1 iteration-gap bounds. The spec is the
// built-in default or a -scenario file, with the flags hoptrain and
// hopnode share (cmd/internal/specflag) applied as overrides, so it
// analyses exactly what those commands would run.
//
// Examples:
//
//	hopgraph -graph ring-based -workers 16
//	hopgraph -graph setting2
//	hopgraph -graph ring -workers 8 -maxig 3 -bounds
//	hopgraph -scenario examples/scenarios/ring4-crash.json
package main

import (
	"flag"
	"fmt"
	"os"

	"hop"
	"hop/cmd/internal/specflag"
	"hop/internal/core"
	"hop/internal/graph"
)

func main() {
	bounds := flag.Bool("bounds", false, "print the full Table 1 bound matrix")
	// Nothing runs, so the default spec's workload and iteration count
	// only satisfy validation.
	specFlags := specflag.Register(flag.CommandLine, hop.Scenario{
		Workload: "quadratic",
		Topology: hop.ScenarioTopology{Kind: "ring-based", Workers: 16},
		MaxIter:  1,
		Seed:     1,
	})
	flag.Parse()
	spec, err := specFlags.Spec()
	if err != nil {
		fail(err)
	}
	opts, err := spec.Resolve()
	if err != nil {
		fail(err)
	}
	cfg := opts.Core
	g := cfg.Graph

	fmt.Printf("graph:          %s\n", g)
	fmt.Printf("connected:      %v   bipartite: %v   diameter: %d\n",
		g.StronglyConnected(), g.IsBipartite(), g.Diameter())
	for i := 0; i < g.N() && i < 4; i++ {
		fmt.Printf("worker %d:       in=%v out=%v\n", i, g.In(i), g.Out(i))
	}
	uw := g.UniformWeights()
	mw := g.MetropolisWeights()
	fmt.Printf("spectral gap:   uniform=%.4f (doubly stochastic: %v)   metropolis=%.4f\n",
		hop.SpectralGap(uw), graph.IsDoublyStochastic(uw, 1e-9), hop.SpectralGap(mw))

	b := core.NewBounds(cfg)
	fmt.Printf("\nTable 1 bounds (mode=%s maxig=%d backup=%d staleness=%d):\n",
		cfg.Mode, cfg.MaxIG, cfg.Backup, cfg.Staleness)
	maxAdj := 0
	for i := 0; i < g.N(); i++ {
		for _, j := range g.In(i) {
			if v := b.Gap(i, j); v != core.Unbounded && v > maxAdj {
				maxAdj = v
			}
		}
	}
	fmt.Printf("max adjacent-pair bound: %s\n", boundStr(maxAdj))
	if *bounds {
		fmt.Printf("full bound matrix (rows: i, cols: j, entry: max Iter(i)-Iter(j)):\n")
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				fmt.Printf("%6s", boundStr(b.Gap(i, j)))
			}
			fmt.Println()
		}
	}
}

func boundStr(v int) string {
	if v >= core.Unbounded {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopgraph:", err)
	os.Exit(2)
}
