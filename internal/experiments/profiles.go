// Package experiments reproduces every table and figure of the paper's
// evaluation (§7). Each experiment has an ID (fig12 … fig21, table1), a
// runner that executes the underlying simulated clusters, and a report
// that prints the same rows/series the paper plots plus the summary
// numbers the tests and EXPERIMENTS.md compare against the paper.
//
// Figures are *scenario definitions*: every decentralized run is a
// declarative scenario.Spec (workload, topology, protocol,
// heterogeneity, network, seed) resolved and executed by
// internal/scenario — the same engine the hopsweep command and JSON
// spec files drive. The package also registers named sweeps (sweeps.go)
// expanding whole experiment grids from one declaration.
//
// Workload profiles substitute the paper's testbed workloads at two
// levels (DESIGN.md §1): statistical behaviour comes from really
// training the laptop-scale CNN/SVM on synthetic data; execution
// behaviour (seconds per iteration, bytes per update) comes from
// paper-scale constants — VGG11-on-CIFAR compute time and fp32 model
// size for the CNN, webspam-scale for the SVM. The constants live in
// scenario.Workloads; Profile adds the per-scale deadlines figures run
// with.
package experiments

import (
	"time"

	"hop/internal/scenario"
)

// Scale selects how long experiments run. Quick keeps the full suite
// under a couple of minutes of host time for tests and CI; Full runs
// the deadlines used for the numbers in EXPERIMENTS.md.
type Scale int

const (
	// Quick is the test/CI scale.
	Quick Scale = iota
	// Full is the EXPERIMENTS.md scale.
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Profile is a scenario workload — trainer prototype plus paper-scale
// cost model — together with the per-scale deadlines the experiment
// suite runs its loss-vs-time figures to.
type Profile struct {
	scenario.Workload
	Deadline map[Scale]time.Duration
}

// profileFor pairs the named scenario workload with the suite's
// deadlines.
func profileFor(name string, deadlines map[Scale]time.Duration) Profile {
	w, err := scenario.WorkloadByName(name)
	if err != nil {
		panic(err) // the scenario package defines both paper workloads
	}
	return Profile{Workload: w, Deadline: deadlines}
}

// CNNProfile returns the image-classification profile (paper:
// VGG11/CIFAR-10).
func CNNProfile() Profile {
	return profileFor("cnn", map[Scale]time.Duration{
		Quick: 500 * time.Second,
		Full:  1500 * time.Second,
	})
}

// SVMProfile returns the sparse linear profile (paper: SVM/webspam,
// log loss).
func SVMProfile() Profile {
	return profileFor("svm", map[Scale]time.Duration{
		Quick: 30 * time.Second,
		Full:  100 * time.Second,
	})
}

// profiles returns the workload set an experiment sweeps (the paper
// always evaluates both).
func profiles() []Profile { return []Profile{CNNProfile(), SVMProfile()} }

// paperTopology is the 16-worker / 4-machine scenario topology of
// Figure 11 with the paper's placement (§7.2: 4 machines, 4 workers
// each).
func paperTopology(kind string) scenario.Topology {
	return scenario.Topology{Kind: kind, Workers: 16, Machines: 4}
}

// randomSlow is the §7.3.1 heterogeneity model in scenario form: every
// worker slowed 6× with probability 1/n per iteration (the scenario
// default probability is exactly 1/workers).
func randomSlow() scenario.Hetero { return scenario.Hetero{Kind: "random", Factor: 6} }

// stragglerSlow is the §7.3.5 model: worker 0 deterministically 4×
// slower.
func stragglerSlow() scenario.Hetero { return scenario.Hetero{Kind: "det", Factor: 4} }
