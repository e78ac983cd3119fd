// Package live is the real-time, real-network runtime of the Hop
// protocol: one Worker per process (or goroutine), communicating over
// TCP through internal/transport. It demonstrates that the protocol is
// not simulator-bound: the Worker is a thin shell that adapts sockets
// and wall-clock time to the core.Runtime interface and lets the
// shared core.Protocol state machine (internal/core/protocol.go) make
// every decision. The full protocol surface — standard, serial and
// NOTIFY-ACK modes, token queues, backup workers, bounded staleness
// with Eq. 2 weighting, skipping iterations — runs here
// verbatim from the same code the deterministic simulator executes.
//
// Queue placement follows the protocol core's consumer-side
// convention: TokenQ(i→j) is a counter at worker j (initialized to
// max_ig) that worker i feeds with token-grant messages as it
// advances. The Theorem 2 invariant — count = Iter(i) − Iter(j) +
// max_ig — is preserved exactly; grants in flight only delay j, never
// violate the bound.
//
// The send-side iteration check of §6.2(b) uses the last iteration
// observed on any message from the receiver; it is a heuristic there
// and remains one here.
package live

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"hop/internal/chaos"
	"hop/internal/core"
	"hop/internal/model"
	"hop/internal/tensor"
	"hop/internal/transport"
)

// Logger is the printf-style sink live workers report through
// (*log.Logger satisfies it). WorkerConfig.Logger defaults to the
// standard library's default logger; tests inject NopLogger to run
// quiet.
type Logger interface {
	Printf(format string, v ...any)
}

type nopLogger struct{}

func (nopLogger) Printf(string, ...any) {}

// NopLogger returns a Logger that discards everything.
func NopLogger() Logger { return nopLogger{} }

// WorkerConfig configures one live worker: the shared protocol
// configuration, stated once, plus what only a socket-backed worker
// needs.
type WorkerConfig struct {
	// Config holds every protocol knob with core.Config semantics — the
	// same struct the simulator runs, so a knob crosses into the live
	// plane without being restated. One process holds one worker's view:
	// this worker's scheduled fault is Faults[ID] (RunCluster restarts
	// it after Faults[ID].RestartAfter), and Compression is the codec
	// of every connection this worker dials.
	core.Config

	ID int

	// ListenAddr is this worker's bind address (":0" for ephemeral).
	ListenAddr string

	Trainer model.Trainer

	// Chaos, when non-nil, injects seeded network faults into this
	// worker's outgoing frames (transport.Config.Chaos): the spec's
	// fault.net clause as every worker reads it, set by the scenario
	// layer.
	Chaos *chaos.Config

	// ComputeDelay, when non-nil, injects artificial per-iteration
	// compute time (for demonstrating heterogeneity on real clusters).
	ComputeDelay func(iter int) time.Duration

	// Logger receives the worker's diagnostics (dropped in-neighbor
	// connections, the failure detector's "peer P suspected" and "peer
	// P healed", ...). nil means the standard library logger.
	Logger Logger

	// Trace, when non-nil, records this worker's protocol decisions
	// (core.Trace) — the live half of the sim↔live differential tests.
	Trace *core.Trace

	// OnIteration, when non-nil, is called on the worker's Run
	// goroutine after each iteration it finishes (core.Runtime.Iterated),
	// with the training loss of the batch; RunCluster's workers call it
	// concurrently.
	OnIteration func(iter int, loss float64)
}

// suspectBudget buys a transient stall time to clear before membership
// reforms, when FaultTolerance is on (the liveness layer, with its
// heartbeat and read-deadline timings in internal/transport, is off
// otherwise): a suspected peer is probed with redials for
// suspectBudget before DeclarePeerDead, and a heartbeat, any protocol
// frame or a successful redial heals it with no membership event.
// suspectBudget must stay below any orchestrated restart delay (e.g.
// live_smoke.sh's rejoin-after) so a genuinely dead peer is declared
// before its replacement tries to join.
const suspectBudget = time.Second

// Worker is one live protocol participant: transport shell + shared
// protocol state machine.
type Worker struct {
	cfg    WorkerConfig
	node   *transport.Node
	mon    core.Monitor
	proto  *core.Protocol
	logger Logger

	// mu guards peerIter (the §6.2(b) observation), ended, lastLoss,
	// addrs (stored at Connect for rejoin redials), the failure-detector
	// state (suspected, closed) and failErr.
	mu       sync.Mutex
	peerIter map[int]int
	// ended holds one entry per protocol peer, set once the peer's
	// connection to this worker has ended (goodbye or EOF): everything
	// it sent has been handled, and it sends nothing more. It stays set,
	// even if the peer redials.
	ended     map[int]bool
	lastLoss  float64
	addrs     map[int]string
	suspected map[int]bool
	closed    bool
	failErr   error
}

// fail records a fatal transport failure and unwinds the protocol
// loop. Unlike a panic it works from any goroutine — send errors
// surface from the protocol loop, the heartbeat loop, and transport
// readers alike — and the first error wins.
func (w *Worker) fail(err error) {
	w.mu.Lock()
	if w.failErr == nil {
		w.failErr = err
	}
	w.mu.Unlock()
	w.proto.Abort()
}

// NewWorker validates the configuration, binds the listener and
// prepares the protocol state. Call Addr to learn the bound address,
// Connect to dial the neighbors, then Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Trainer == nil {
		return nil, fmt.Errorf("live: no trainer")
	}
	if cfg.MaxIter <= 0 {
		return nil, fmt.Errorf("live: MaxIter must be positive (a deadline is virtual time only)")
	}
	if cfg.Mode == core.ModeADPSGD {
		return nil, fmt.Errorf("live: adpsgd does not run live: the wire has no reply frame")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	w := &Worker{
		cfg:       cfg,
		mon:       core.NewSyncMonitor(),
		peerIter:  make(map[int]int),
		ended:     make(map[int]bool),
		suspected: make(map[int]bool),
		logger:    logger,
	}
	proto, err := core.NewProtocol(cfg.Config, cfg.ID, cfg.Trainer, w.mon, &liveRuntime{w: w}, cfg.Trace)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	w.proto = proto
	for _, j := range cfg.ProtocolPeers(cfg.ID) {
		w.peerIter[j] = -1
		w.ended[j] = false
	}
	node, err := transport.ListenConfig(cfg.ID, cfg.ListenAddr, w.handle, transport.Config{
		Compressor: cfg.Compression.New(),
		// A dropped in-neighbor otherwise manifests only as a silent
		// hang in the Recv: log the diagnosis (also counted in
		// WireStats().ReadErrors). A handshake-pinned inbound
		// connection ending means the peer sends nothing more on it,
		// and — the per-connection frame stream being sequential —
		// everything it sent before has already been delivered: the
		// peer has ended (Finish). It is also the live plane's death
		// evidence. A goodbye (err == nil) is the peer *announcing* its
		// exit — declared dead immediately; an abrupt end (EOF, reset)
		// could be a transient network event, so it only raises
		// suspicion and lets the probe budget decide.
		OnPeerDown: func(peer int, err error) {
			if err != nil {
				logger.Printf("hop/live: worker %d: %v", cfg.ID, err)
			}
			if peer < 0 {
				return // not a peer: the connection ended before its hello
			}
			w.mu.Lock()
			w.ended[peer] = true
			w.mu.Unlock()
			if !cfg.FaultTolerance {
				if err != nil {
					w.fail(fmt.Errorf("live: worker %d: peer %d connection lost: %w", cfg.ID, peer, err))
				}
				return
			}
			if err == nil {
				w.proto.DeclarePeerDead(peer)
				return
			}
			w.suspect(peer, "connection lost")
		},
		// The liveness layer runs with fault tolerance only.
		Liveness: cfg.FaultTolerance,
		// A full read-deadline window of silence from a peer: the
		// failure detector's trigger.
		OnPeerSilent: func(peer int) { w.suspect(peer, "silent past read deadline") },
		// Frames reach the wire on the peers' writer goroutines, after
		// Send has returned; a failed write routes through the same
		// policy as a send the protocol loop saw fail.
		OnSendError: func(peer int, err error) { w.noteSendError(peer, err) },
		Chaos:       cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	w.node = node
	return w, nil
}

// liveRuntime adapts sockets and real time to core.Runtime. The
// protocol loop calls these from the worker's Run goroutine; inbound
// deliveries arrive through Worker.handle on transport reader
// goroutines, synchronized by the worker's monitor inside the protocol
// queues.
type liveRuntime struct{ w *Worker }

// Compute runs the gradient step for real, then sleeps any injected
// heterogeneity delay: its cost is spent before it returns.
func (r *liveRuntime) Compute(iter int, fn func()) {
	fn()
	if d := r.w.cfg.ComputeDelay; d != nil {
		if dd := d(iter); dd > 0 {
			time.Sleep(dd)
		}
	}
}

// EndCompute has nothing to wait for: Compute already took its time.
func (r *liveRuntime) EndCompute() {}

func (r *liveRuntime) Iterated(iter int, loss float64) {
	r.w.mu.Lock()
	r.w.lastLoss = loss
	r.w.mu.Unlock()
	if f := r.w.cfg.OnIteration; f != nil {
		f(iter, loss)
	}
}

func (r *liveRuntime) Send(dst int, u core.Update) {
	err := r.w.node.Send(dst, transport.Message{Kind: transport.KindUpdate, Iter: u.Iter, Params: u.Params})
	if err != nil {
		r.w.noteSendError(dst, err)
	}
}

func (r *liveRuntime) GrantTokens(dst, iter int) {
	err := r.w.node.Send(dst, transport.Message{Kind: transport.KindToken, Iter: iter})
	if err != nil {
		r.w.noteSendError(dst, err)
	}
}

// noteSendError handles a transport send failure: fault-tolerant
// workers suspect the peer and drop the frame (the probe either heals
// the connection or declares the peer dead and the protocol reforms);
// otherwise the failure promptly aborts the run with the transport
// error — from whichever goroutine noticed it.
func (w *Worker) noteSendError(dst int, err error) {
	if !w.cfg.FaultTolerance {
		w.fail(fmt.Errorf("live: worker %d: %w", w.cfg.ID, err))
		return
	}
	w.logger.Printf("hop/live: worker %d: send to %d failed: %v", w.cfg.ID, dst, err)
	w.suspect(dst, "send failed")
}

// suspect marks peer as possibly gone and starts (at most one) probe
// goroutine for it. Suspicion is a detector state, not a membership
// state: nothing in the protocol changes until the probe gives up.
func (w *Worker) suspect(peer int, cause string) {
	if !w.cfg.FaultTolerance {
		return
	}
	for _, d := range w.proto.DeadPeers() {
		if d == peer {
			return // already declared; nothing left to detect
		}
	}
	w.mu.Lock()
	if w.closed || w.suspected[peer] {
		w.mu.Unlock()
		return
	}
	w.suspected[peer] = true
	w.mu.Unlock()
	w.logger.Printf("hop/live: worker %d: peer %d suspected (%s)", w.cfg.ID, peer, cause)
	go w.probe(peer)
}

// notePeerAlive clears any suspicion on peer — fresh evidence (a
// heartbeat, any protocol frame, a successful redial) means the stall
// healed.
func (w *Worker) notePeerAlive(peer int) {
	w.mu.Lock()
	was := w.suspected[peer]
	delete(w.suspected, peer)
	w.mu.Unlock()
	if was {
		w.logger.Printf("hop/live: worker %d: peer %d healed", w.cfg.ID, peer)
	}
}

// probe retries the suspected peer with backoff until the suspicion
// clears (frames resumed, or a redial handshake succeeded), the
// worker closes, or the budget runs out — only then is the peer
// declared dead through the PR 6 membership path, reforming the
// iteration graph deterministically.
func (w *Worker) probe(peer int) {
	w.mu.Lock()
	addr, hasAddr := w.addrs[peer]
	w.mu.Unlock()
	deadline := time.Now().Add(suspectBudget)
	bo := transport.NewBackoff(transport.BackoffConfig{
		Initial: 20 * time.Millisecond, Max: 200 * time.Millisecond,
	})
	for {
		w.mu.Lock()
		closed, still := w.closed, w.suspected[peer]
		w.mu.Unlock()
		if closed || !still {
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		if hasAddr {
			dialT := remaining
			if dialT > 300*time.Millisecond {
				dialT = 300 * time.Millisecond
			}
			err := w.node.Dial(peer, addr, dialT)
			if err == nil && w.cfg.Staleness > 0 {
				// What the torn connection swallowed before its first
				// write failed is gone, and this worker may by now be
				// blocked on the very peer that is waiting for it.
				// Bounded staleness keeps the newest update per sender,
				// so repeating the latest is always safe there; the
				// other modes count updates and tolerate neither a loss
				// nor a repeat.
				err = w.node.Resend(peer)
			}
			if err == nil {
				w.notePeerAlive(peer)
				return
			}
		}
		d := bo.Next()
		if rem := time.Until(deadline); d > rem {
			d = rem
		}
		if d > 0 {
			time.Sleep(d)
		}
	}
	w.mu.Lock()
	still := w.suspected[peer] && !w.closed
	delete(w.suspected, peer)
	w.mu.Unlock()
	if still {
		w.logger.Printf("hop/live: worker %d: peer %d unreachable past budget (declaring dead)", w.cfg.ID, peer)
		w.proto.DeclarePeerDead(peer)
	}
}

// PeerIter is the §6.2(b) observation: the newest iteration seen on
// any message from the peer (a heuristic, unlike the simulator's exact
// global view).
func (r *liveRuntime) PeerIter(peer int) int {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.w.peerIter[peer]
}

// Observe acts on one decision live: a re-admitted peer needs a fresh
// outbound connection before the protocol's next send to it. Join
// events arrive with the monitor held, so the redial happens off to
// the side. There is no global gap tracker on a real cluster; peers
// learn this worker's iteration from its messages.
func (r *liveRuntime) Observe(e core.TraceEvent) {
	if e.Kind == core.TraceJoin {
		go r.w.redialPeer(e.From)
	}
}

// GetParams and RecycleParams keep the buffer-ownership contract on
// tensor's vector pool: every inbound update decodes into its own
// buffer (transport readConn draws from tensor.GetVec), and outbound
// Send releases the caller's slice before returning (the transport
// encodes or snapshots it while staging the update), so the live
// iteration hot path is allocation-free.
func (r *liveRuntime) GetParams(n int) []float64 { return tensor.GetVec(n) }

func (r *liveRuntime) RecycleParams(v []float64) { tensor.PutVec(v) }

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.node.Addr() }

// Connect dials every peer this worker sends to: its out-going
// neighbors (updates, acks) and its in-coming neighbors (token
// grants) — or, under Prague, the whole cluster. addrs maps worker
// id → address.
func (w *Worker) Connect(addrs map[int]string, timeout time.Duration) error {
	need := map[int]bool{}
	for _, j := range w.cfg.ProtocolPeers(w.cfg.ID) {
		need[j] = true
	}
	w.mu.Lock()
	w.addrs = make(map[int]string, len(addrs))
	for j, a := range addrs {
		w.addrs[j] = a
	}
	w.mu.Unlock()
	for j := range need {
		addr, ok := addrs[j]
		if !ok {
			if w.cfg.FaultTolerance {
				// A neighbor with no address is a neighbor already gone
				// (e.g. crashed before this worker restarted).
				w.proto.DeclarePeerDead(j)
				continue
			}
			return fmt.Errorf("live: no address for neighbor %d", j)
		}
		if err := w.node.Dial(j, addr, timeout); err != nil {
			if w.cfg.FaultTolerance {
				w.logger.Printf("hop/live: worker %d: dial neighbor %d: %v (declaring dead)", w.cfg.ID, j, err)
				w.proto.DeclarePeerDead(j)
				continue
			}
			return err
		}
	}
	return nil
}

// redialPeer re-establishes the outbound connection to a peer that
// rejoined after a restart (it listens on its original address).
func (w *Worker) redialPeer(peer int) {
	w.mu.Lock()
	addr, ok := w.addrs[peer]
	w.mu.Unlock()
	if !ok {
		return
	}
	if err := w.node.Dial(peer, addr, DefaultDialTimeout); err != nil {
		w.logger.Printf("hop/live: worker %d: redial peer %d: %v", w.cfg.ID, peer, err)
	}
}

// Close shuts down the transport (and stops any in-flight probes from
// declaring peers dead afterwards).
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.node.Close()
}

// handle is the transport inbound path: any frame from a peer is
// liveness evidence that clears suspicion; protocol frames then
// deliver into the shared state. Heartbeats stop at the liveness layer
// — their zero Iter must not feed the §6.2(b) observation.
func (w *Worker) handle(m transport.Message) {
	w.notePeerAlive(m.From)
	if m.Kind == transport.KindHeartbeat {
		return
	}
	w.observeIter(m.From, m.Iter)
	switch m.Kind {
	case transport.KindUpdate:
		w.proto.Deliver(core.Update{Params: m.Params, Iter: m.Iter, From: m.From})
	case transport.KindToken:
		w.proto.DeliverTokens(m.From, m.Iter)
	}
}

func (w *Worker) observeIter(peer, iter int) {
	w.mu.Lock()
	if cur, ok := w.peerIter[peer]; ok && iter > cur {
		w.peerIter[peer] = iter
	}
	w.mu.Unlock()
}

// Params returns the trainer's parameter vector.
func (w *Worker) Params() []float64 { return w.cfg.Trainer.Params() }

// Trainer returns this worker's model replica.
func (w *Worker) Trainer() model.Trainer { return w.cfg.Trainer }

// Trace returns the decision trace configured for this worker, or nil.
func (w *Worker) Trace() *core.Trace { return w.cfg.Trace }

// Run executes the training loop for MaxIter iterations under the
// configured protocol mode. It returns the final training loss. A
// fatal transport failure recorded by fail() surfaces here as its
// original error instead of the bare core.ErrAborted the abort
// produced.
func (w *Worker) Run() (float64, error) {
	err := w.proto.Run()
	if err == nil {
		// The loop's last token grants are queued, not yet written: a
		// finished Run means they are on the wire.
		w.node.Flush()
	}
	if errors.Is(err, core.ErrAborted) {
		w.mu.Lock()
		ferr := w.failErr
		w.mu.Unlock()
		if ferr != nil {
			return w.LastLoss(), ferr
		}
	}
	return w.LastLoss(), err
}

// Abort unblocks and unwinds a running Run (which then returns
// core.ErrAborted). Live cluster teardown uses it so a failed worker
// does not leave its neighbors blocked in Recv forever.
func (w *Worker) Abort() { w.proto.Abort() }

// Finish is how a worker whose Run returned nil leaves the cluster:
// it closes this worker's sending half (every connection drains and
// says goodbye, transport.Node.CloseSends) and then keeps the listener
// serving until every protocol peer has ended — its connection to this
// worker closed, by goodbye or EOF, after all it sent was handled — or
// is dead. Peers finish at different iterations by design, and a
// worker that closed its listener the moment its own loop ended would
// tear down sockets its slower peers still send their final updates
// or token grants to. The rule names no mode and no knob: a peer
// is done when it says so. Finish returns whether every peer was done
// before timeout; call Close after it either way.
func (w *Worker) Finish(timeout time.Duration) bool {
	w.node.CloseSends()
	deadline := time.Now().Add(timeout)
	for !w.peersDone() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// peersDone reports whether every protocol peer has ended or is dead.
func (w *Worker) peersDone() bool {
	dead := w.proto.DeadPeers()
	w.mu.Lock()
	defer w.mu.Unlock()
	for j, ended := range w.ended {
		if !ended && !slices.Contains(dead, j) {
			return false
		}
	}
	return true
}

// LastLoss returns the most recent completed iteration's training
// loss.
func (w *Worker) LastLoss() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLoss
}

// Stats snapshots this worker's protocol counters (jumps, skipped
// iterations, suppressed sends) — the same counters the simulated
// engine aggregates.
func (w *Worker) Stats() core.Stats { return w.proto.Stats() }

// Tokens reports TokenQ(j→me) and its high water (diagnostics and the
// Theorem 2 conservation tests); see core.Protocol.Tokens.
func (w *Worker) Tokens(j int) (n, high int, ok bool) { return w.proto.Tokens(j) }

// MaxObservedStaleness reports the largest k − iter over all updates a
// bounded-staleness Reduce — the §5 pre-jump refresh's included —
// actually aggregated: Fig. 9 guarantees it
// never exceeds the configured bound, however updates arrive
// (compressed, chunked, out of order relative to tokens). It is 0 when
// bounded staleness is disabled.
func (w *Worker) MaxObservedStaleness() int { return w.proto.MaxObservedStaleness() }

// WireStats snapshots the transport's byte/frame counters (see
// transport.Stats); counters.Add sums them over a cluster.
func (w *Worker) WireStats() transport.Stats { return w.node.Stats() }
