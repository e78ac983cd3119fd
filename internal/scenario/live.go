package scenario

// Live execution: resolve a Spec to one live.WorkerConfig per graph
// node and run it as a loopback TCP cluster (live.RunCluster). The
// same declarative document that drives the deterministic simulator
// drives real sockets — the protocol knobs, workload, topology,
// compression and seed layering carry over verbatim, because both
// planes execute the same core.Protocol state machine (DESIGN.md §5).
//
// Axes that model the environment rather than configure the protocol
// translate differently:
//
//   - Hetero: the simulator replaces compute time with the modeled
//     IterTime; live workers really compute, so only the heterogeneity
//     surplus (factor−1)·base is injected as a real sleep, scaled by
//     LiveOptions.TimeScale. Per-worker RNG streams use the cluster
//     runner's exact seed layering, so a random profile slows the same
//     (worker, iteration) pairs in both planes.
//   - Net: link classes shape the simulated fabric only; live traffic
//     rides the real network (loopback here).
//   - PayloadBytes: the simulator models update size; live updates are
//     the model's real parameter vector, compressed by the real codec.
//   - Deadline: virtual-time only. Live execution requires MaxIter.

import (
	"fmt"
	"time"

	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/hetero"
	"hop/internal/live"
	"hop/internal/model"
)

// LiveOptions tune how a Spec is realized on the live runtime.
type LiveOptions struct {
	// TimeScale scales the injected heterogeneity delay (see package
	// comment); 0 means 1. Tests use small scales to run straggler
	// scenarios in milliseconds.
	TimeScale float64
	// Logger receives worker diagnostics; nil means the standard
	// library logger (live.NopLogger runs quiet).
	Logger live.Logger
	// Trace attaches a core.Trace decision trace to every worker
	// (read back via Worker.Trace).
	Trace bool
}

// ResolveLive turns the spec into one live worker configuration per
// graph node, ListenAddr defaulting to loopback-ephemeral. All
// replicas are clones of one prototype, exactly like the simulated
// cluster's trainer layout.
func (s Spec) ResolveLive(o LiveOptions) ([]live.WorkerConfig, error) {
	opts, err := s.resolveLiveOptions(o)
	if err != nil {
		return nil, err
	}
	cfgs := make([]live.WorkerConfig, opts.Core.Graph.N())
	for i := range cfgs {
		cfgs[i] = liveWorkerConfig(opts, i, o, opts.Trainer.Clone())
	}
	return cfgs, nil
}

// ResolveLiveWorker resolves only worker id's configuration — what one
// hopnode process needs, without materializing the other n−1 model
// replicas.
func (s Spec) ResolveLiveWorker(id int, o LiveOptions) (live.WorkerConfig, error) {
	opts, err := s.resolveLiveOptions(o)
	if err != nil {
		return live.WorkerConfig{}, err
	}
	// The fresh prototype Resolve built is this worker's replica.
	return liveWorkerConfig(opts, id, o, opts.Trainer), nil
}

// timeScale returns the effective TimeScale.
func (o LiveOptions) timeScale() float64 {
	if o.TimeScale <= 0 {
		return 1
	}
	return o.TimeScale
}

// resolveLiveOptions resolves the spec for live execution (whose
// constraints live.NewWorker checks). Restart delays model virtual
// time in the spec; they are realized on the same clock as the
// injected heterogeneity delays — scaled once, into a copy, because
// the n worker configs built from these options all share the one
// Faults slice.
func (s Spec) resolveLiveOptions(o LiveOptions) (cluster.Options, error) {
	opts, err := s.Resolve()
	if err != nil {
		return cluster.Options{}, err
	}
	faults := append([]core.FaultSchedule(nil), opts.Core.Faults...)
	for i, f := range faults {
		if f.RestartAfter > 0 {
			faults[i].RestartAfter = max(time.Duration(float64(f.RestartAfter)*o.timeScale()), time.Millisecond)
		}
	}
	opts.Core.Faults = faults
	return opts, nil
}

// liveWorkerConfig builds worker i's live configuration from resolved
// cluster options: the protocol configuration as is, plus the
// socket-side fields.
func liveWorkerConfig(opts cluster.Options, i int, o LiveOptions, t model.Trainer) live.WorkerConfig {
	cfg := live.WorkerConfig{
		Config:       opts.Core,
		ID:           i,
		ListenAddr:   "127.0.0.1:0",
		Trainer:      t,
		Logger:       o.Logger,
		ComputeDelay: liveComputeDelay(i, opts.Compute, opts.Seed, o.timeScale()),
		Chaos:        opts.Net.Chaos,
	}
	if o.Trace {
		cfg.Trace = core.NewTrace()
	}
	return cfg
}

// liveComputeDelay builds worker w's injected per-iteration delay: the
// heterogeneity surplus over the homogeneous base (the real gradient
// computation stands in for the base itself), scaled. Returns nil when
// nothing would ever be injected.
func liveComputeDelay(w int, c hetero.Compute, seed int64, scale float64) func(int) time.Duration {
	if _, homogeneous := c.Slow.(hetero.None); homogeneous || c.Slow == nil {
		return nil
	}
	rng := hetero.WorkerRNG(seed, w)
	return func(iter int) time.Duration {
		if surplus := c.IterTime(w, iter, rng) - c.Base; surplus > 0 {
			return time.Duration(float64(surplus) * scale)
		}
		return 0
	}
}

// RunLive resolves the spec and executes it as a live loopback TCP
// cluster. Decision traces (when LiveOptions.Trace is set) are read
// back from result.Workers[i].Trace().
func (s Spec) RunLive(o LiveOptions) (*live.ClusterResult, error) {
	cfgs, err := s.ResolveLive(o)
	if err != nil {
		return nil, err
	}
	res, err := live.RunCluster(cfgs, live.DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return res, nil
}
