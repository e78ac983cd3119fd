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
	"math"
	"math/rand"
	"sort"
	"testing"
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
	// Core is the protocol configuration.
	Core core.Config

	// Trainers holds one model replica per worker; the paper starts
	// them all from identical parameters (x0,i = p0, Fig. 4). nil
	// clones Trainer below per worker.
	Trainers []model.Trainer

	// Trainer is the prototype model replica (cloned per worker when
	// Trainers is nil).
	Trainer model.Trainer

	// Tracers, when non-nil, holds one optional decision trace per
	// worker (entries may be nil): the protocol records its decisions
	// into it (core.Trace), a restarted worker continuing its
	// predecessor's. The sim↔live differential tests read them.
	Tracers []*core.Trace

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
	k        *sim.Kernel
	fabric   *netsim.Fabric
	protos   []*core.Protocol
	gaps     *core.GapTracker
	compute  hetero.Compute
	workers  []worker
	trainers []model.Trainer
	tracers  []*core.Trace
	rngs     []*rand.Rand // per-worker slowdown RNG
	procs    []*sim.Proc
	steps    []gradStep
	payload  int

	// rec records every finished iteration (worker.Iterated); the eval
	// worker's loss is sampled on its evalEvery-th, counted in evals.
	rec        *metrics.Recorder
	evalWorker int
	evalEvery  int
	evals      int

	// free is the cluster's parameter-buffer free list (worker.GetParams,
	// worker.RecycleParams). Only the scheduling plane, one simulated
	// process or kernel callback at a time, touches it, so it needs no
	// lock; it grows to the peak number of buffers in use and stays.
	// Under test a recycled buffer is filled with NaN, so a read after
	// release shows up as a NaN loss.
	free [][]float64

	offloaded int // Result.StepsOffloaded
}

// gradStep is one worker's slot on the compute plane: the reusable
// whole-step task its gradient closures run as, where they run, and
// the virtual time the step ends. The choice is made from the closure
// itself: the worker's first step is timed inline, and its later steps
// go to the pool only if that one took longer than a hand-off is worth
// (tensor.StepOffloadMin). The closure is pure, so the choice can move
// host time and nothing else.
type gradStep struct {
	task    tensor.Step
	timed   bool
	offload bool
	end     time.Duration
}

// worker is worker w's core.Runtime on the simulator.
type worker struct {
	h *Host
	w int
}

// Compute starts worker w's gradient step on the compute plane and
// draws its modeled cost, the virtual time EndCompute waits for. The
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
func (r *worker) Compute(iter int, fn func()) {
	h, w := r.h, r.w
	s := &h.steps[w]
	switch {
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
	s.end = h.k.Now() + h.compute.IterTime(w, iter, h.rngs[w])
}

func (r *worker) EndCompute() {
	h := r.h
	s := &h.steps[r.w]
	if d := s.end - h.k.Now(); d > 0 {
		h.procs[r.w].Sleep(d)
	}
	s.task.Join()
}

// Iterated records worker w's finished iteration. The eval worker's
// held-out loss is sampled on every evalEvery-th iteration it finishes,
// counted rather than read off iter: a jumping worker skips iteration
// numbers.
func (r *worker) Iterated(iter int, loss float64) {
	h, now := r.h, r.h.k.Now()
	h.rec.RecordIteration(r.w, iter, now)
	if r.w != h.evalWorker {
		return
	}
	h.rec.RecordTrain(now, iter, loss)
	if h.evals%h.evalEvery == 0 {
		h.rec.RecordEval(now, iter, h.trainers[r.w].EvalLoss())
	}
	h.evals++
}

// Send and SendAck route through DeliverData, the chaos-injectable
// path: when the scenario enables net faults, updates and ACKs can be
// dropped, duplicated, reordered, corrupted, or partitioned. Death
// notices (Run) keep the fault-free Deliver — chaos models a lossy
// data plane, not a lying failure detector. Messages travel as typed
// records (src is always u.From) and arrive at deliver, so a send
// allocates no closure. Like the live transport, Send is done with
// u.Params when it returns: the message carries its own copy, from the
// free list, which the receiving protocol owns and recycles — or, if
// the fabric loses the message, the sender does at once.
func (r *worker) Send(dst int, u core.Update) {
	if u.Params != nil {
		buf := r.GetParams(len(u.Params))
		copy(buf, u.Params)
		u.Params = buf
	}
	if !r.h.fabric.DeliverData(r.h.payload, netsim.Message{Dst: dst, From: r.w, Iter: u.Iter, Reply: u.Reply, Params: u.Params}) {
		r.RecycleParams(u.Params)
	}
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

// GetParams pops a buffer off the cluster's free list, or makes one.
func (r *worker) GetParams(n int) []float64 {
	h := r.h
	if last := len(h.free) - 1; last >= 0 && cap(h.free[last]) >= n {
		v := h.free[last]
		h.free = h.free[:last]
		return v[:n]
	}
	return make([]float64, n)
}

// RecycleParams pushes v onto the cluster's free list.
func (r *worker) RecycleParams(v []float64) {
	if cap(v) == 0 {
		return
	}
	if testing.Testing() {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	r.h.free = append(r.h.free, v)
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
	if h.tracers != nil {
		tr = h.tracers[w]
	}
	p, err := core.NewProtocol(cfg, w, h.trainers[w], monitor{h.k}, &h.workers[w], tr)
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
	trainers := opts.Trainers
	if trainers == nil {
		if opts.Trainer == nil {
			return nil, fmt.Errorf("cluster: no trainer configured")
		}
		trainers = make([]model.Trainer, n)
		for i := range trainers {
			trainers[i] = opts.Trainer.Clone()
		}
	}
	if len(trainers) != n {
		return nil, fmt.Errorf("cluster: %d trainers for %d workers", len(trainers), n)
	}
	if opts.Tracers != nil && len(opts.Tracers) != n {
		return nil, fmt.Errorf("cluster: %d tracers for %d workers", len(opts.Tracers), n)
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

	h := &Host{
		k:          k,
		fabric:     fabric,
		protos:     make([]*core.Protocol, n),
		gaps:       core.NewGapTrackerFor(monitor{k}, cfg.Graph),
		compute:    opts.Compute,
		workers:    make([]worker, n),
		trainers:   trainers,
		tracers:    opts.Tracers,
		rngs:       make([]*rand.Rand, n),
		procs:      make([]*sim.Proc, n),
		steps:      make([]gradStep, n),
		payload:    opts.PayloadBytes,
		rec:        metrics.NewRecorder(n),
		evalWorker: opts.EvalWorker,
		evalEvery:  opts.EvalEvery,
	}
	for i := 0; i < n; i++ {
		h.workers[i] = worker{h: h, w: i}
		h.rngs[i] = hetero.WorkerRNG(opts.Seed, i)
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
		Metrics:        h.rec,
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
