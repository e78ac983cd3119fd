// Package hop is a from-scratch Go implementation of Hop, the
// heterogeneity-aware decentralized training protocol of Luo, Lin,
// Zhuo and Qian (ASPLOS 2019), together with every substrate and
// baseline its evaluation depends on.
//
// The package is a façade over the implementation packages:
//
//   - Topologies and spectral analysis (Ring, RingBased, DoubleRing,
//     Complete, the Figure 21 settings, SpectralGap).
//   - The protocol configuration (Config): update queues, token
//     queues, backup workers, bounded staleness, skipping iterations
//     (MaxJump), NOTIFY-ACK — each off at its zero value.
//   - Workloads (NewCNN, NewSVM, NewQuadratic) exposing the Trainer
//     interface.
//   - Heterogeneity models (NoSlowdown, RandomSlowdown,
//     DeterministicSlowdown) and the network fabric configuration.
//   - The deterministic simulated cluster (Run / Options / Result) on
//     which all paper figures regenerate, and the live TCP runtime
//     (live worker nodes) for real deployments. Both take the same
//     Config: Options.Core is one, LiveWorkerConfig embeds one.
//   - Declarative scenarios (Scenario, ParseScenario, RunScenario,
//     RunScenarioLive): every knob stated once as a spec field and
//     resolved once into that Config — what the commands' flags
//     override and what sweeps expand.
//   - The experiment registry (Experiments, RunExperiment) that
//     regenerates every table and figure of the paper's §7.
//
// Quickstart:
//
//	g := hop.RingBased(16)
//	hop.PlaceEvenly(g, 4)
//	opts := hop.Options{
//	    Core:     hop.Config{Graph: g, MaxIG: 4, Backup: 1, SendCheck: true},
//	    Trainer:  hop.NewCNN(hop.DefaultCNNConfig()),
//	    Deadline: 500 * time.Second,
//	}
//	opts.Compute.Base = 4 * time.Second
//	opts.Compute.Slow = hop.RandomSlowdown(6, 1.0/16)
//	res, err := hop.Run(opts)
package hop

import (
	"errors"
	"io"
	"time"

	"hop/internal/cluster"
	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/experiments"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/live"
	"hop/internal/model"
	"hop/internal/netsim"
	"hop/internal/scenario"
	"hop/internal/tensor"
)

// --- Compute plane ----------------------------------------------------

// SetComputeWorkers sets the width of the compute plane (DESIGN.md §3):
// how many simulated workers' gradient steps run at once (the
// -compute-workers flag of the simulator commands; a live worker
// computes inline). n <= 0 restores the GOMAXPROCS default. Results are
// bit-identical at any width — experiment outputs do not depend on the
// setting.
func SetComputeWorkers(n int) { tensor.SetWorkers(n) }

// --- Topology ---------------------------------------------------------

// Graph is a directed communication topology over workers (§3.1).
type Graph = graph.Graph

// NewGraph returns an empty topology over n workers (add edges with
// AddEdge/AddBiEdge; self-loops are implicit).
func NewGraph(name string, n int) *Graph { return graph.New(name, n) }

// Ring returns the bidirectional ring of Figure 11(a).
func Ring(n int) *Graph { return graph.Ring(n) }

// RingBased returns the ring plus most-distant-node chords of
// Figure 11(b).
func RingBased(n int) *Graph { return graph.RingBased(n) }

// DoubleRing returns the double-ring graph of Figure 11(c).
func DoubleRing(n int) *Graph { return graph.DoubleRing(n) }

// Complete returns the all-to-all topology.
func Complete(n int) *Graph { return graph.Complete(n) }

// Setting1 returns the Figure 21(a) baseline placement/topology.
func Setting1() *Graph { return graph.Setting1() }

// Setting2 returns the Figure 21(b) placement-aware topology.
func Setting2() *Graph { return graph.Setting2() }

// Setting3 returns the Figure 21(c) placement-aware topology.
func Setting3() *Graph { return graph.Setting3() }

// PlaceEvenly assigns the graph's workers to m machines in contiguous
// blocks (the paper's 16-worker/4-machine setup).
func PlaceEvenly(g *Graph, m int) { graph.EvenPlacement(g, m) }

// SpectralGap returns ‖λ1‖−‖λ2‖ of a weight matrix (§7.3.6).
func SpectralGap(w [][]float64) float64 { return graph.SpectralGap(w) }

// --- Protocol ---------------------------------------------------------

// Config is the protocol configuration (modes, token queues, backup
// workers, bounded staleness, skipping iterations). Every knob is off
// at its zero value, so Config{Graph: g} is standard decentralized
// training (Fig. 4).
type Config = core.Config

// ModeNotifyAck selects the NOTIFY-ACK baseline (Config.Mode).
const ModeNotifyAck = core.ModeNotifyAck

// Bounds computes the Table 1 iteration-gap bounds for a Config.
type Bounds = core.Bounds

// NewBounds derives the Table 1 bound calculator.
func NewBounds(cfg Config) *Bounds { return core.NewBounds(cfg) }

// Unbounded marks an infinite Table 1 bound.
const Unbounded = core.Unbounded

// ErrCrashed reports a worker halted by its scheduled fault
// (Config.Faults / a scenario's fault axis) — an intentional outcome
// under fault tolerance, not a failure.
var ErrCrashed = core.ErrCrashed

// CompressionSpec selects the live runtime's wire codec for update
// payloads ("none", "float32", "topk[:ratio]"); see ParseCompression.
type CompressionSpec = compress.Spec

// ParseCompression parses a wire-codec spec string.
func ParseCompression(s string) (CompressionSpec, error) { return compress.ParseSpec(s) }

// --- Workloads --------------------------------------------------------

// Trainer is one worker's model replica: flat parameters, stochastic
// gradients, an optimizer step and a held-out evaluation loss.
type Trainer = model.Trainer

// CNNConfig configures the image-classification workload.
type CNNConfig = model.CNNConfig

// DefaultCNNConfig mirrors the paper's CNN hyper-parameters at
// synthetic scale.
func DefaultCNNConfig() CNNConfig { return model.DefaultCNNConfig() }

// NewCNN builds the CNN workload (the paper's VGG11/CIFAR stand-in).
func NewCNN(cfg CNNConfig) *model.CNN { return model.NewCNN(cfg) }

// SVMConfig configures the sparse linear workload.
type SVMConfig = model.SVMConfig

// DefaultSVMConfig mirrors the paper's SVM hyper-parameters at
// synthetic scale.
func DefaultSVMConfig() SVMConfig { return model.DefaultSVMConfig() }

// NewSVM builds the SVM workload (the paper's webspam stand-in).
func NewSVM(cfg SVMConfig) *model.SVM { return model.NewSVM(cfg) }

// NewQuadratic builds the toy quadratic workload used by quickstarts
// and tests.
func NewQuadratic(start, target []float64, lr, noise float64) Trainer {
	return model.NewQuadratic(start, target, lr, noise)
}

// --- Heterogeneity and network -----------------------------------------

// Slowdown models per-iteration compute slowdowns.
type Slowdown = hetero.Slowdown

// NoSlowdown is the homogeneous environment.
func NoSlowdown() Slowdown { return hetero.None{} }

// RandomSlowdown slows any worker by factor with probability prob per
// iteration (§7.3.1).
func RandomSlowdown(factor, prob float64) Slowdown {
	return hetero.Random{Fact: factor, Prob: prob}
}

// DeterministicSlowdown slows fixed workers by fixed factors (§7.3.5).
func DeterministicSlowdown(factors map[int]float64) Slowdown {
	return hetero.Deterministic{Factors: factors}
}

// NetConfig describes the simulated network fabric.
type NetConfig = netsim.Config

// Default1GbE mirrors the paper's 1000 Mbit/s testbed network.
func Default1GbE() NetConfig { return netsim.Default1GbE() }

// --- Simulated cluster --------------------------------------------------

// Options configure one simulated training run.
type Options = cluster.Options

// Result carries a run's metrics, engine state and trained replicas.
type Result = cluster.Result

// Run executes a decentralized training run on the deterministic
// simulator.
func Run(opts Options) (*Result, error) { return cluster.Run(opts) }

// --- Scenarios and sweeps -----------------------------------------------

// Scenario is a declarative experiment spec: every axis of one
// simulated run (workload, topology, protocol, heterogeneity, network,
// compression, payload, deadline, seed) as plain data. Parse one from
// JSON with ParseScenario, or compose it in Go and call Run.
type Scenario = scenario.Spec

// ScenarioTopology selects a Scenario's graph and placement.
type ScenarioTopology = scenario.Topology

// ScenarioProtocol selects a Scenario's coordination settings.
type ScenarioProtocol = scenario.Protocol

// ScenarioHetero selects a Scenario's compute-heterogeneity profile.
type ScenarioHetero = scenario.Hetero

// ScenarioDuration is a time.Duration that reads and writes the
// human-friendly "500ms"/"4s" JSON form scenario specs use.
type ScenarioDuration = scenario.Duration

// Sweep expands a base Scenario across axis grids of partial-spec
// patches; Run fans the cells out in parallel with byte-identical
// reports at any width (DESIGN.md §4).
type Sweep = scenario.Sweep

// SweepAxis is one sweep dimension.
type SweepAxis = scenario.Axis

// SweepValue is one point on a sweep axis: a label plus a partial-spec
// JSON patch.
type SweepValue = scenario.AxisValue

// SweepResult holds every cell's report in deterministic grid order.
type SweepResult = scenario.SweepResult

// ParseScenario decodes a JSON scenario spec (unknown fields are
// rejected).
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// ParseSweep decodes a JSON sweep document.
func ParseSweep(data []byte) (Sweep, error) { return scenario.ParseSweep(data) }

// RunScenario resolves and executes one scenario on the deterministic
// simulator.
func RunScenario(s Scenario) (*Result, error) { return s.Run() }

// RunSweep expands and executes a sweep, fanning cells out across at
// most width goroutines (width <= 0 means one per cell).
func RunSweep(sw Sweep, width int) (*SweepResult, error) { return sw.Run(width) }

// --- Live scenarios -----------------------------------------------------

// ScenarioLiveOptions tune how a Scenario is realized on the live TCP
// runtime (time scaling of injected heterogeneity, logging, decision
// tracing).
type ScenarioLiveOptions = scenario.LiveOptions

// LiveWorkerConfig configures one live TCP worker: an embedded Config
// (the protocol knobs, exactly as the simulator takes them) plus the
// worker's id, listen address, trainer and socket-side settings.
type LiveWorkerConfig = live.WorkerConfig

// LiveWorker is one live TCP protocol participant, running the same
// core protocol state machine as the simulator.
type LiveWorker = live.Worker

// LiveClusterResult carries a live loopback cluster run's workers,
// final losses and wall-clock duration.
type LiveClusterResult = live.ClusterResult

// NewLiveWorker validates the configuration, binds the listener and
// prepares one live TCP worker (Connect, then Run).
func NewLiveWorker(cfg LiveWorkerConfig) (*LiveWorker, error) { return live.NewWorker(cfg) }

// ResolveScenarioLive turns a scenario into one live worker
// configuration per graph node (loopback-ephemeral listen addresses).
func ResolveScenarioLive(s Scenario, o ScenarioLiveOptions) ([]LiveWorkerConfig, error) {
	return s.ResolveLive(o)
}

// ResolveScenarioLiveWorker resolves a single worker's configuration —
// what one hopnode process needs, without building the other replicas.
func ResolveScenarioLiveWorker(s Scenario, id int, o ScenarioLiveOptions) (LiveWorkerConfig, error) {
	return s.ResolveLiveWorker(id, o)
}

// RunScenarioLive executes a scenario as a live loopback TCP cluster:
// the same declarative spec the simulator runs, on real sockets.
func RunScenarioLive(s Scenario, o ScenarioLiveOptions) (*LiveClusterResult, error) {
	return s.RunLive(o)
}

// RunLiveCluster executes explicitly-built live worker configurations
// as one in-process cluster (dialTimeout <= 0 uses the default).
func RunLiveCluster(cfgs []LiveWorkerConfig, dialTimeout time.Duration) (*LiveClusterResult, error) {
	return live.RunCluster(cfgs, dialTimeout)
}

// Sweeps lists the named built-in sweeps (hopsweep -list).
func Sweeps() []Sweep { return experiments.Sweeps() }

// LookupSweep finds a built-in sweep by name.
func LookupSweep(name string) (Sweep, error) { return experiments.LookupSweep(name) }

// --- Experiments --------------------------------------------------------

// Experiment is a registered paper table/figure reproduction.
type Experiment = experiments.Entry

// ExperimentScale selects Quick (CI) or Full (EXPERIMENTS.md) runs.
type ExperimentScale = experiments.Scale

// ScaleQuick selects the quick (CI-sized) experiment scale.
const ScaleQuick = experiments.Quick

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment { return experiments.Registry }

// RunExperiment regenerates one table/figure by id (e.g. "fig14",
// "table1") and writes its report to w. A failed write is an error
// like a failed run.
func RunExperiment(id string, scale ExperimentScale, w io.Writer) error {
	e, err := experiments.Lookup(id)
	if err != nil {
		return err
	}
	rep, err := e.Run(scale)
	if rep != nil {
		_, werr := rep.WriteTo(w)
		err = errors.Join(err, werr)
	}
	return err
}
