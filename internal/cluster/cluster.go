// Package cluster assembles a complete simulated training cluster: the
// deterministic kernel (internal/sim), the network fabric
// (internal/netsim), the heterogeneity model (internal/hetero), one
// core.Protocol per worker (internal/core), per-worker model replicas
// (internal/model) and a metrics recorder (internal/metrics).
//
// One call to Run executes one experiment configuration end to end in
// virtual time and returns the recorded series — the unit every paper
// figure is built from.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hop/internal/core"
	"hop/internal/counters"
	"hop/internal/hetero"
	"hop/internal/metrics"
	"hop/internal/model"
	"hop/internal/netsim"
	"hop/internal/sim"
	"hop/internal/tensor"
)

// ackBytes is the modeled wire size of a NOTIFY-ACK and of a death
// notice: metadata, next to a parameter update's PayloadBytes.
const ackBytes = 64

// Options configure one simulated run.
type Options struct {
	// Core is the protocol configuration; Trainers may be left nil, in
	// which case Trainer below is cloned per worker.
	Core core.Config

	// Trainer is the prototype model replica (cloned per worker when
	// Core.Trainers is nil).
	Trainer model.Trainer

	// Compute models gradient-computation time and slowdowns.
	Compute hetero.Compute

	// Net models the network; zero value means Default1GbE.
	Net netsim.Config

	// PayloadBytes is the modeled wire size of one parameter update
	// (the paper-scale model size; see DESIGN.md §1).
	PayloadBytes int

	// Deadline stops the run at this virtual time (0 = run to
	// MaxIter).
	Deadline time.Duration

	// EvalWorker's model is evaluated on the held-out batch every
	// EvalEvery iterations (defaults: worker 0, every 10).
	EvalWorker int
	EvalEvery  int

	// Seed drives the compute-slowdown RNGs (distinct from
	// Core.Seed, which drives mini-batch sampling).
	Seed int64
}

// Result is everything a run produced.
type Result struct {
	Metrics  *metrics.Recorder
	Engine   *Host // the cluster run: per-worker protocols, gaps, counters
	Fabric   *netsim.Fabric
	Trainers []model.Trainer // the per-worker replicas actually trained
	Duration time.Duration   // virtual time at completion
	// StepsOffloaded counts the gradient steps that ran as whole-step
	// tasks on the compute plane; the rest ran inline — each worker's
	// timed first step, and every step of a worker whose first was too
	// cheap to hand off. Host-time bookkeeping: nothing simulated
	// depends on it.
	StepsOffloaded int
	// Deadlock is non-nil when the run deadlocked (AD-PSGD on a
	// non-bipartite graph, §5); the paper's protocols never deadlock.
	Deadlock error
}

// monitor adapts the sim kernel to core.Monitor: the kernel runs one
// process at a time, so Lock/Unlock are no-ops and condition variables
// are kernel conds.
type monitor struct{ k *sim.Kernel }

func (monitor) Lock()   {}
func (monitor) Unlock() {}

func (m monitor) NewCond() core.Cond { return sim.NewCond(m.k) }

// Host is the simulated cluster the workers share: kernel, fabric,
// compute plane, the gap tracker, and one core.Protocol per worker,
// built on that worker's core.Runtime (a worker). Run delivers death
// notices and restarts through it.
type Host struct {
	k       *sim.Kernel
	fabric  *netsim.Fabric
	protos  []*core.Protocol
	gaps    *core.GapTracker
	compute hetero.Compute
	workers []worker
	rngs    []*rand.Rand // per-worker slowdown RNG
	procs   []*sim.Proc
	steps   []gradStep
	payload int

	offloaded int // Result.StepsOffloaded
}

// gradStep is one worker's slot on the compute plane: the reusable
// whole-step task its gradient closures run as, and where they run.
// The choice is made from the closure itself: the worker's first step
// is timed inline, and its later steps go to the pool only if that one
// took longer than a hand-off is worth (tensor.StepOffloadMin). The
// closure is pure, so the choice can move host time and nothing else.
type gradStep struct {
	task    tensor.Step
	timed   bool
	offload bool
}

// worker is worker w's core.Runtime on the simulator.
type worker struct {
	h *Host
	w int
}

func (r *worker) Now() time.Duration { return r.h.k.Now() }

// Compute starts worker w's gradient step on the compute plane. The
// math costs no *virtual* time; in host time it overlaps the other
// workers' steps and everything the scheduler does until w's
// EndCompute, which joins it (DESIGN.md §3.2).
//
// This is the hatch between the scheduling plane (one simulated process
// at a time, deterministic) and the compute plane (all cores), and what
// keeps it invisible to the kernel is a rule on fn: pure compute on
// worker w's own state. It must not call a kernel operation (Sleep,
// Wait, Spawn, After) or block on another simulated process; it may
// fan out across real OS threads — the tensor pool's goroutines are
// not simulated processes — as long as none outlive the join.
func (r *worker) Compute(iter int, fn func()) time.Duration {
	h, w := r.h, r.w
	switch s := &h.steps[w]; {
	case s.offload:
		s.task.Start(fn)
		h.offloaded++
	case s.timed:
		fn()
	default:
		t0 := time.Now()
		fn()
		s.timed, s.offload = true, time.Since(t0) > tensor.StepOffloadMin
	}
	return h.compute.IterTime(w, iter, h.rngs[w])
}

func (r *worker) EndCompute(t time.Duration) {
	h := r.h
	if d := t - h.k.Now(); d > 0 {
		h.procs[r.w].Sleep(d)
	}
	h.steps[r.w].task.Join()
}

// Send and SendAck route through DeliverData, the chaos-injectable
// path: when the scenario enables net faults, updates and ACKs can be
// dropped, duplicated, reordered, corrupted, or partitioned. Death
// notices (Run) keep the fault-free Deliver — chaos models a lossy
// data plane, not a lying failure detector. Messages travel as typed
// records (src is always u.From) and arrive at deliver, so a send
// allocates no closure.
func (r *worker) Send(dst int, u core.Update) {
	r.h.fabric.DeliverData(r.h.payload, netsim.Message{Dst: dst, From: r.w, Iter: u.Iter, Reply: u.Reply, Params: u.Params})
}

func (r *worker) SendAck(dst, iter int) {
	r.h.fabric.DeliverData(ackBytes, netsim.Message{Dst: dst, From: r.w, Iter: iter, Ack: true})
}

// GrantTokens bypasses the fabric: in shared memory the paper's
// TokenQ(i→j) and the consumer-side counter are literally the same
// object, so the grant goes straight into it and no round trip is
// modeled (token messages are metadata-sized next to parameter
// updates).
func (r *worker) GrantTokens(dst, iter, count int) {
	r.h.protos[dst].DeliverTokens(r.w, count)
}

// PeerIter is exact in simulation: the global gap tracker knows every
// worker's current iteration (the §6.2(b) check's best case).
func (r *worker) PeerIter(peer int) int { return r.h.gaps.Iter(peer) }

// Observe feeds the gap tracker: the one decision the simulator acts
// on is a worker entering an iteration.
func (r *worker) Observe(e core.TraceEvent) {
	if e.Kind == core.TraceAdvance {
		r.h.gaps.Advance(r.w, e.Iter)
	}
}

// deliver is the fabric's message handler: the arrival end of Send and
// SendAck. The protocol is resolved at delivery time, so a message in
// flight across a restart lands on the new instance.
func (h *Host) deliver(m netsim.Message) {
	if m.Ack {
		h.protos[m.Dst].DeliverAck(m.From, m.Iter)
		return
	}
	h.protos[m.Dst].Deliver(core.Update{Params: m.Params, Iter: m.Iter, From: m.From, Reply: m.Reply})
}

// build makes worker w's protocol from cfg, on w's runtime.
func (h *Host) build(cfg core.Config, w int) error {
	var tr *core.Trace
	if cfg.Tracers != nil {
		tr = cfg.Tracers[w]
	}
	p, err := core.NewProtocol(cfg, w, cfg.Trainers[w], monitor{h.k}, &h.workers[w], tr)
	if err != nil {
		return err
	}
	h.protos[w] = p
	return nil
}

// Worker returns worker w's current protocol instance.
func (h *Host) Worker(w int) *core.Protocol { return h.protos[w] }

// Gaps returns the iteration-gap tracker.
func (h *Host) Gaps() *core.GapTracker { return h.gaps }

// Stats returns the protocol counters aggregated over all workers.
func (h *Host) Stats() core.Stats {
	var total core.Stats
	for _, p := range h.protos {
		counters.Add(&total, p.Stats())
	}
	return total
}

// Run executes the configured cluster and returns its results.
func Run(opts Options) (*Result, error) {
	cfg := opts.Core
	if cfg.Graph == nil {
		return nil, fmt.Errorf("cluster: no graph configured")
	}
	n := cfg.Graph.N()
	if cfg.Trainers == nil {
		if opts.Trainer == nil {
			return nil, fmt.Errorf("cluster: no trainer configured")
		}
		cfg.Trainers = make([]model.Trainer, n)
		for i := 0; i < n; i++ {
			cfg.Trainers[i] = opts.Trainer.Clone()
		}
	}
	if opts.Net.IsZero() {
		opts.Net = netsim.Default1GbE()
	}
	if opts.PayloadBytes <= 0 {
		opts.PayloadBytes = 1 << 20
	}
	if opts.EvalEvery <= 0 {
		opts.EvalEvery = 10
	}
	if opts.Compute.Base <= 0 {
		opts.Compute.Base = 100 * time.Millisecond
	}
	if cfg.MaxIter == 0 && opts.Deadline == 0 {
		return nil, fmt.Errorf("cluster: need MaxIter or Deadline to terminate")
	}

	k := sim.NewKernel()
	fabric := netsim.New(k, opts.Net, n, cfg.Graph.Machine)
	rec := metrics.NewRecorder(n)

	h := &Host{
		k:       k,
		fabric:  fabric,
		protos:  make([]*core.Protocol, n),
		gaps:    core.NewGapTrackerFor(monitor{k}, cfg.Graph),
		compute: opts.Compute,
		workers: make([]worker, n),
		rngs:    make([]*rand.Rand, n),
		procs:   make([]*sim.Proc, n),
		steps:   make([]gradStep, n),
		payload: opts.PayloadBytes,
	}
	for i := 0; i < n; i++ {
		h.workers[i] = worker{h: h, w: i}
		h.rngs[i] = hetero.WorkerRNG(opts.Seed, i)
	}

	evalWorker := opts.EvalWorker
	trainers := cfg.Trainers
	userIter := cfg.OnIteration
	evalCount := 0 // completed iterations of the eval worker; jumping
	// workers skip iteration numbers, so cadence must not depend on
	// iter % EvalEvery.
	cfg.OnIteration = func(w, iter int, loss float64, now time.Duration) {
		rec.RecordIteration(w, iter, now)
		if w == evalWorker {
			rec.RecordTrain(now, iter, loss)
			if evalCount%opts.EvalEvery == 0 {
				rec.RecordEval(now, iter, trainers[w].EvalLoss())
			}
			evalCount++
		}
		if userIter != nil {
			userIter(w, iter, loss, now)
		}
	}

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for w := 0; w < n; w++ {
		if err := h.build(cfg, w); err != nil {
			return nil, err
		}
	}
	fabric.Handle(h.deliver)

	// dead tracks currently-crashed workers, so a restarted worker can
	// be told about peers that died before it existed. Kernel callbacks
	// run single-threaded, so no locking.
	dead := make(map[int]bool)
	var spawnWorker func(w int, rejoined bool)
	spawnWorker = func(w int, rejoined bool) {
		name := fmt.Sprintf("worker-%d", w)
		if rejoined {
			name = fmt.Sprintf("worker-%d-rejoin", w)
		}
		// A (re)started worker's first step is timed afresh.
		h.steps[w].timed, h.steps[w].offload = false, false
		h.procs[w] = k.Spawn(name, func(p *sim.Proc) {
			// The simulator never aborts a protocol (the kernel kills
			// processes at its deadline instead), so the only error is
			// ErrCrashed from a scheduled fault.
			err := h.protos[w].Run()
			if err == nil || !errors.Is(err, core.ErrCrashed) || !cfg.FaultTolerance {
				// Without FaultTolerance a crash simply wedges the
				// neighbors — the kernel's deadlock detector reports it,
				// reproducing the pre-fault fail-stop model.
				return
			}
			dead[w] = true
			// Death notices ride the fabric to every protocol peer as
			// metadata-sized frames: per-(src,dst) arrival order is
			// monotone, so the notice lands after everything the worker
			// sent before dying.
			for _, j := range cfg.ProtocolPeers(w) {
				j := j
				fabric.Deliver(w, j, ackBytes, func() { h.protos[j].DeclarePeerDead(w) })
			}
			if f := cfg.Faults[w]; f.RestartAfter > 0 {
				k.After(f.RestartAfter, func() {
					// The replacement keeps the trainer (parameters as of
					// the crash) and the decision trace, with fresh queues.
					if err := h.build(cfg.Restarted(), w); err != nil {
						panic(fmt.Sprintf("cluster: restart worker %d: %v", w, err))
					}
					delete(dead, w)
					// Peers that died before this worker restarted are
					// unknown to the fresh instance; tell it directly so
					// its rejoin handshake skips them. Sorted: map
					// iteration order would leak into the notice order
					// and break run determinism.
					stillDead := make([]int, 0, len(dead))
					for d := range dead {
						stillDead = append(stillDead, d)
					}
					sort.Ints(stillDead)
					for _, d := range stillDead {
						h.protos[w].DeclarePeerDead(d)
					}
					spawnWorker(w, true)
				})
			}
		})
	}
	for w := 0; w < n; w++ {
		spawnWorker(w, false)
	}

	runErr := k.RunUntil(opts.Deadline)
	// A worker cut off between Compute and EndCompute — by the deadline,
	// a deadlock, a wedged neighbor — leaves its gradient step on the
	// compute plane. Finish every one before handing the trainers out:
	// the caller may evaluate them at once.
	for w := range h.steps {
		h.steps[w].task.Join()
	}
	res := &Result{
		Metrics:        rec,
		Engine:         h,
		Fabric:         fabric,
		Trainers:       trainers,
		Duration:       k.Now(),
		StepsOffloaded: h.offloaded,
	}
	if runErr != nil {
		if _, ok := runErr.(*sim.DeadlockError); ok {
			res.Deadlock = runErr
			return res, nil
		}
		return nil, runErr
	}
	return res, nil
}
