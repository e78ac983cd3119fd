package core

// The Engine is the simulator-side shell around the runtime-agnostic
// Protocol state machine (protocol.go): it builds one Protocol per
// worker on the Runtime its host supplies, and keeps the cluster-wide
// observability the experiments read (gap tracker, aggregated stats,
// Table 1 bounds). All protocol logic — iteration modes, Recv/Reduce
// semantics, skipping, token accounting — lives in protocol.go and is
// shared verbatim with the live TCP runtime (internal/live).

import "hop/internal/counters"

// Engine wires per-worker protocol instances and trainers for one
// simulated cluster and exposes the per-worker protocol loop.
type Engine struct {
	cfg Config
	mon Monitor
	rt  func(w int) Runtime

	n       int
	workers []*Protocol
	gaps    *GapTracker
}

// NewEngine validates cfg and builds the cluster state, worker w's
// protocol running on rt(w). The host behind rt is responsible for
// delivering messages sent through it back into the engine via
// Deliver/DeliverAck, and for running RunWorker once per worker.
func NewEngine(cfg Config, mon Monitor, rt func(w int) Runtime) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	e := &Engine{cfg: cfg, mon: mon, rt: rt, n: n}
	e.gaps = NewGapTrackerFor(mon, cfg.Graph)
	e.workers = make([]*Protocol, n)
	for w := 0; w < n; w++ {
		var tr *Trace
		if cfg.Tracers != nil {
			tr = cfg.Tracers[w]
		}
		p, err := NewProtocol(cfg, w, cfg.Trainers[w], mon, rt(w), tr)
		if err != nil {
			return nil, err
		}
		e.workers[w] = p
	}
	return e, nil
}

// Deliver enqueues a network-delivered update at worker dst.
func (e *Engine) Deliver(dst int, u Update) { e.workers[dst].Deliver(u) }

// DeliverAck records a network-delivered NOTIFY-ACK from sender from
// at worker dst.
func (e *Engine) DeliverAck(dst, from, iter int) { e.workers[dst].DeliverAck(from, iter) }

// Worker returns worker w's protocol instance.
func (e *Engine) Worker(w int) *Protocol { return e.workers[w] }

// Queue returns worker w's update queue (tests and hosts).
func (e *Engine) Queue(w int) *UpdateQueue { return e.workers[w].Queue() }

// TokenQ returns TokenQ(i→j), or nil if absent. The queue is held by
// its consumer j (see protocol.go); the paper's owner-side naming is
// preserved here for the Theorem 2 assertions.
func (e *Engine) TokenQ(i, j int) *TokenQueue { return e.workers[j].TokenIn(i) }

// Gaps returns the iteration-gap tracker.
func (e *Engine) Gaps() *GapTracker { return e.gaps }

// Stats returns the engine counters aggregated over all workers.
func (e *Engine) Stats() Stats {
	var total Stats
	for _, p := range e.workers {
		counters.Add(&total, p.Stats())
	}
	return total
}

// Bounds returns the Table 1 bound calculator for this configuration.
func (e *Engine) Bounds() *Bounds { return NewBounds(e.cfg) }

// RunWorker executes worker w's training loop until MaxIter (or until
// the host kills the process at its deadline). It must run on the
// process/goroutine the host associates with w. The simulator never
// aborts protocols (the kernel kills processes at its deadline
// instead), so the only error here is ErrCrashed from a scheduled
// fault — the host's cue to issue death notices (and maybe a restart).
func (e *Engine) RunWorker(w int) error { return e.workers[w].Run() }

// RestartWorker replaces worker w's protocol instance with a fresh
// rejoining participant: same trainer (parameters as of the crash),
// same decision trace, on rt(w) again, with fresh queues, Config.Rejoin
// set and the crash schedule cleared. The host then runs RunWorker(w)
// again on a new process; in-flight deliveries resolve the worker at
// delivery time, so they land on the new instance.
func (e *Engine) RestartWorker(w int) error {
	cfg := e.cfg
	cfg.Rejoin = true
	cfg.Faults = nil
	var tr *Trace
	if cfg.Tracers != nil {
		tr = cfg.Tracers[w]
	}
	p, err := NewProtocol(cfg, w, e.cfg.Trainers[w], e.mon, e.rt(w), tr)
	if err != nil {
		return err
	}
	e.workers[w] = p
	return nil
}
