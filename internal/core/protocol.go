package core

// This file is the runtime-agnostic heart of the repository: one Hop
// protocol state machine (Figures 4 and 7-9, §5 skipping, and the
// NOTIFY-ACK baseline; prague.go and baselines.go add the other
// protocols as modes of the same loop) written once, against the
// Runtime interface, and driven by two very different shells — the
// deterministic simulator (internal/cluster) and the live TCP runtime
// (internal/live.Worker). Before this extraction the live runtime
// hand-mirrored recvReduce/jumpTarget/renewParams and silently lacked
// NOTIFY-ACK, the serial graph and stale weighting; now any protocol
// change lands on both planes by construction. See DESIGN.md §5.
//
// Token accounting. TokenQ(i→j), which the paper stores at worker i,
// is realized at its consumer j as one number: granted, the newest
// iteration i has entered. Theorem 2 then reads the queue as
// granted − Iter(j) + max_ig tokens, so j may enter next once
// granted + max_ig ≥ next for every live out-neighbor — the
// cumulative shape of the NOTIFY-ACK gate. Fig. 7's "insert at
// iteration start / remove at iteration end" folds into one advance
// step: moving from k to next (next = k+1, or further after a §5
// jump) passes that gate and grants next to every in-neighbor through
// Runtime.GrantTokens. A grant only ever raises granted, so a
// duplicated, reordered or superseded grant is a no-op, and a grant's
// flight time only delays j, never breaks the bound. NOTIFY-ACK's
// ACK(k) is the same message: finishing k grants k+1, and Send(k)
// waits for every live out-neighbor's grant of k — the token gate at
// max_ig = 0.
//
// Bounded staleness. Fig. 9's pseudocode dequeues at least one update
// from every in-neighbor per iteration, which would contradict the
// §3.5/Fig. 3(b) behaviour it illustrates (a worker advancing several
// iterations on a neighbor's old update). The protocol follows the
// paper's prose: drain what is available, remember the newest
// iteration ever received per sender (iter_rcv), and block only while
// iter_rcv < k−s. See DESIGN.md.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"hop/internal/model"
	"hop/internal/seeded"
	"hop/internal/tensor"
)

// Runtime is the execution environment one Protocol instance runs
// against: the cost model of gradient computation and the message
// plane. The simulator implements it on the virtual-time kernel and
// network fabric; the live runtime implements it on real time and TCP.
// The protocol reads no clock: everything it decides — when to
// advance, jump, block, aggregate or discard — depends on iteration
// tags and counts and flows exclusively through this interface, which
// is what makes decision traces comparable across runtimes (DESIGN.md
// §5).
type Runtime interface {
	// Compute starts the gradient computation of iteration iter;
	// EndCompute is the join. Between the two calls fn may be running
	// on another goroutine, so everything it touches — the trainer
	// (parameters read-only to everyone, the rest not at all), the
	// mini-batch RNG, the grads and loss it leaves behind — is
	// off-limits to the caller, and fn itself must be pure compute. The
	// simulator runs fn on the compute plane, concurrently with other
	// workers' steps, and draws the heterogeneity model's cost; live, fn
	// has run when Compute returns, and took its real execution time
	// plus any injected delay. The parallel computation graph overlaps
	// the two calls with Recv.
	Compute(iter int, fn func())

	// EndCompute ends the compute overlap: it blocks this worker until
	// the modeled cost of the last Compute has elapsed and the fn handed
	// to it has finished. Only then are fn's results readable.
	EndCompute()

	// Iterated reports that this worker finished iteration iter
	// (post-apply) with the training loss of its batch. It is called
	// once per executed iteration — never for one a §5 jump skipped,
	// nor by the parameter server, which computes nothing — on the
	// worker's own goroutine, and may touch this worker's trainer only:
	// any other worker's gradient step may be in flight.
	Iterated(iter int, loss float64)

	// Send delivers u to dst's update queue asynchronously (the Send
	// operation of §3.2 is non-blocking). dst is never this worker;
	// the protocol short-circuits self-delivery. Send is done with
	// u.Params when it returns (copied or serialized; nil stays nil).
	Send(dst int, u Update)

	// GrantTokens tells in-neighbor dst, the consumer of TokenQ(me→dst)
	// (§4.2), that this worker entered iteration iter — under
	// NOTIFY-ACK, that it finished iter−1 (§3.3's ACK); dst hands it to
	// DeliverTokens.
	GrantTokens(dst, iter int)

	// PeerIter reports the newest known iteration of peer, for the
	// §6.2(b) send-side check: exact in simulation (global gap
	// tracker), last-observed on the live runtime. It is a heuristic
	// there and remains one here.
	PeerIter(peer int) int

	// Observe receives each decision this worker makes, in program
	// order, as it is made — the events the decision trace records
	// (trace.go), whether or not a trace is attached. The simulator
	// advances its gap tracker on TraceAdvance; live, a TraceJoin
	// starts the redial of the rejoined peer. Death and join events
	// arrive with the monitor held, so Observe must not block or
	// re-enter the protocol, and e.Members is the protocol's own slice,
	// valid only for the duration of the call.
	Observe(e TraceEvent)

	// GetParams returns a length-n vector with unspecified contents;
	// RecycleParams takes back one the protocol is done with (nil is
	// ignored). Every delivered Update owns its slice, so a reduced,
	// stale-dropped or superseded update's buffer goes back here
	// (DESIGN.md §5.1). Both run with the monitor held; neither blocks.
	GetParams(n int) []float64
	RecycleParams(v []float64)
}

// Protocol is one worker's Hop state machine: the update queue, the
// per-peer records and the per-iteration decision loop of a single
// participant. It is runtime-agnostic — construct it with NewProtocol,
// feed inbound messages through Deliver/DeliverTokens (any
// goroutine/process), and call Run on the worker's own
// goroutine/process.
type Protocol struct {
	cfg     Config
	id      int
	trainer model.Trainer
	rt      Runtime
	mon     Monitor

	queue *UpdateQueue
	gate  Cond // announces a grant (peer.granted)

	// peers holds one record per protocol peer and one for the worker
	// itself, sorted by id (peerOf); dying counts the records with a
	// declared death not yet applied, so a wait without one checks in
	// O(1).
	peers []peer
	dying int

	// in and out are the live neighbor views the iteration loop reads.
	// Without fault tolerance they alias the immutable graph sets gin
	// and gout; membership changes (membership.go) replace them with
	// fresh filtered slices — only ever on the Run goroutine, under mon
	// — so the graph's shared adjacency slices are never mutated.
	in, out   []int
	gin, gout []int
	gnbrs     []int // gin ∪ gout, deterministic order

	rng   *rand.Rand
	trace *Trace

	// vecScratch, weightScratch and peerScratch are the reduces'
	// reusable vector-header, weight and sender blocks.
	vecScratch    [][]float64
	weightScratch []float64
	peerScratch   []int
	reduceBuf     []float64

	// computeFn is the gradient step handed to Runtime.Compute, leaving
	// its results in grads/loss — readable only after EndCompute. It is
	// built once in NewProtocol because a closure passed through an
	// interface method escapes; the wait closures handed to await do
	// not, so they cost no allocation.
	computeFn func()
	grads     []float64
	loss      float64

	// group is this step's Prague group (prague.go), set at the top of
	// each iteration from pragueRng, reseeded in place every step; both
	// nil in every other mode.
	group     []int
	pragueRng *rand.Rand

	// crashIter is this worker's scheduled halt (0 = none).
	crashIter int

	// AD-PSGD state (baselines.go), owned by the Run loop: whether this
	// worker initiates averaging, with which out-neighbour (pick), and
	// how many initiating in-neighbours exist and have said done.
	initiator           bool
	pick                *rand.Rand
	initiatorsIn, dones int

	// curIter is the iteration this worker is in, guarded by mon: the
	// one death events applied mid-iteration are recorded at
	// (membership.go) and token counts are read against. Fault
	// tolerance sets it at each loop top, token queues as the gate
	// admits the next iteration.
	curIter int

	// stats, maxStale and aborted (set by Abort) are guarded by mon.
	stats    Stats
	maxStale int
	aborted  bool
}

// peer is what one worker keeps about one protocol peer, guarded by
// the monitor.
type peer struct {
	id int

	// granted is the newest iteration id has granted this worker, so
	// TokenQ(id→me) holds granted − curIter + max_ig tokens (§4.2,
	// Theorem 2), and tokensHigh is the most it ever held. Both are
	// meaningful only when id is a graph out-neighbor and grants are
	// on (Config.grants). Under NOTIFY-ACK granted is one past id's
	// newest ACK; an ACK for k implies every earlier one: id acks k
	// only after it holds this worker's update k, which was sent only
	// after id's ACK(k−1).
	granted, tokensHigh int

	// iterRecv is the newest iteration ever received from id (Fig. 9's
	// iter_rcv), owned by the Run loop; −1 until the first arrives.
	iterRecv int

	// Elastic membership (membership.go): the in- and out-edges to id
	// are removed (deadIn, deadOut); its death is declared but not yet
	// applied (dying); a removed peer has sent again (joining); its
	// re-admission is traced (joinLogged). k0 is the tag of its first
	// real update while joining, 0 until one arrives.
	deadIn, deadOut, dying, joining, joinLogged bool
	k0                                          int
}

// peerOf returns j's record, or nil if j is neither a protocol peer
// nor this worker. It reads only ids, which never change, so it needs
// no lock.
func (p *Protocol) peerOf(j int) *peer {
	i := sort.Search(len(p.peers), func(i int) bool { return p.peers[i].id >= j })
	if i == len(p.peers) || p.peers[i].id != j {
		return nil
	}
	return &p.peers[i]
}

// NewProtocol builds the state machine for worker id. cfg supplies the
// cluster-wide protocol knobs and t this worker's replica, so a
// single-process runtime need not materialize the whole cluster's
// models. The monitor must be the one the runtime's delivery path
// locks against; the runtime must deliver inbound messages via
// Deliver/DeliverTokens. tr may be nil (no decision trace).
func NewProtocol(cfg Config, id int, t model.Trainer, mon Monitor, rt Runtime, tr *Trace) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n := cfg.Graph.N(); id < 0 || id >= n {
		return nil, fmt.Errorf("core: worker id %d out of range for %d workers", id, n)
	}
	p := &Protocol{
		cfg:     cfg,
		id:      id,
		trainer: t,
		rt:      rt,
		mon:     mon,
		queue:   NewUpdateQueue(mon, len(cfg.Graph.In(id))+1),
		gate:    mon.NewCond(),
		in:      cfg.Graph.In(id),
		out:     cfg.Graph.Out(id),
		rng:     seeded.New(cfg.Seed + int64(id)*7919 + 1),
		trace:   tr,
	}
	p.queue.recycle = rt.RecycleParams
	p.computeFn = func() { p.grads, p.loss = p.trainer.ComputeGrad(p.rng) }
	p.gnbrs = cfg.ProtocolPeers(id)
	if cfg.Prague != nil {
		p.pragueRng = rand.New(new(seeded.Source))
	}
	if cfg.Mode == ModePrague {
		// The live neighbor views — which elastic membership filters —
		// cover every peer a Prague group may name.
		p.in, p.out = p.gnbrs, p.gnbrs
	}
	p.gin, p.gout = p.in, p.out
	ids := append(slices.Clone(p.gnbrs), id)
	slices.Sort(ids)
	p.peers = make([]peer, len(ids))
	for i, j := range ids {
		p.peers[i] = peer{id: j, iterRecv: -1, tokensHigh: cfg.MaxIG}
	}
	if cfg.Faults != nil {
		p.crashIter = cfg.Faults[id].CrashIter
	}
	if cfg.Mode == ModeADPSGD {
		p.initADPSGD()
	}
	return p, nil
}

// ID returns the worker id this protocol instance runs as.
func (p *Protocol) ID() int { return p.id }

// Abort unblocks and unwinds this worker's Run: every blocked (or
// future) wait panics with the abort sentinel, which Run converts into
// ErrAborted. Safe from any goroutine, before, during or after Run;
// used by live orchestration to tear down a cluster whose peer has
// failed — without it, neighbors of a dead worker block forever in
// Recv. The simulator never aborts: its kernel kills processes at the
// deadline instead.
func (p *Protocol) Abort() {
	p.mon.Lock()
	defer p.mon.Unlock()
	p.aborted = true
	p.wakeAllLocked()
}

// errAborted unwinds a worker loop from the wait it is blocked in (or
// about to block in) once Abort was called; Run recovers it.
type errAborted struct{}

// await is the one place a worker blocks: the Recv on its update queue,
// the bounded-staleness drain, the grant gate (token queues and
// NOTIFY-ACK), and the baselines' receives all come here. With the
// monitor held it loops until ready() holds: an aborted worker unwinds;
// otherwise the pending deaths of the peers whose data the wait is
// missing are applied (applyDeathsLocked) and the wait re-evaluated at
// once; with none to apply it sleeps on c, the cond whose Broadcast
// announces this wait's data. ready runs under the monitor and may consume what it
// finds; missing is only called for peers with a pending death.
func (p *Protocol) await(c Cond, ready func() bool, peers []int, missing func(int) bool) {
	p.mon.Lock()
	defer p.mon.Unlock()
	for !ready() {
		if p.aborted {
			panic(errAborted{})
		}
		if !p.applyDeathsLocked(peers, missing) {
			c.Wait()
		}
	}
}

// Deliver enqueues a network-delivered update.
func (p *Protocol) Deliver(u Update) {
	p.noteAlive(u.From, u.Iter)
	p.queue.Enqueue(u)
}

// DeliverTokens records a network-delivered grant: peer from entered
// iteration iter (under NOTIFY-ACK, finished iter−1). It max-merges
// iter into from's granted iteration, so a grant older than one already
// seen changes nothing.
func (p *Protocol) DeliverTokens(from, iter int) {
	p.noteAlive(from, iter)
	r := p.peerOf(from)
	if r == nil {
		return
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	r.granted = max(r.granted, iter)
	r.tokensHigh = max(r.tokensHigh, r.granted-p.curIter+p.cfg.MaxIG)
	p.gate.Broadcast()
}

// Queue returns this worker's update queue (runtimes, tests).
func (p *Protocol) Queue() *UpdateQueue { return p.queue }

// Tokens reports TokenQ(j→me) as Theorem 2 counts it, granted_j −
// Iter(me) + max_ig, and the most it ever held; ok is false unless j
// is a graph out-neighbor and token queues are on.
func (p *Protocol) Tokens(j int) (n, high int, ok bool) {
	if p.cfg.MaxIG == 0 || !containsInt(p.gout, j) {
		return 0, 0, false
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	r := p.peerOf(j)
	return r.granted - p.curIter + p.cfg.MaxIG, r.tokensHigh, true
}

// Stats snapshots this worker's protocol counters. Stale discards are
// counted where they happen, in the update queue.
func (p *Protocol) Stats() Stats {
	p.mon.Lock()
	s := p.stats
	p.mon.Unlock()
	s.StaleDiscarded = p.queue.StaleDiscarded()
	return s
}

// MaxObservedStaleness reports the largest k − iter over all updates a
// bounded-staleness Reduce — the §5 pre-jump refresh's included —
// actually aggregated: Fig. 9 guarantees it never exceeds the
// configured bound, however updates arrive. It is 0 when bounded
// staleness is disabled.
func (p *Protocol) MaxObservedStaleness() int {
	p.mon.Lock()
	defer p.mon.Unlock()
	return p.maxStale
}

// ErrAborted is returned by Run when Abort tore the worker down.
var ErrAborted = errors.New("core: protocol run aborted")

// ErrCrashed is returned by Run when a scheduled fault (Config.Faults)
// halted this worker mid-run.
var ErrCrashed = errors.New("core: worker halted by scheduled fault")

// Run executes the training loop until MaxIter (or until the runtime
// kills the worker at its deadline), returning ErrAborted if Abort
// unwound it and ErrCrashed if a scheduled fault halted it. It must
// run on the process/goroutine the runtime associates with this
// worker.
func (p *Protocol) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAborted); ok {
				err = ErrAborted
				return
			}
			panic(r) // runtime shells' own sentinels (and real bugs)
		}
	}()
	return p.run()
}

func (p *Protocol) run() error {
	cfg := &p.cfg
	k := 0
	if cfg.Rejoin {
		k = p.joinSync()
	}
	for cfg.MaxIter == 0 || k < cfg.MaxIter {
		// An abort lands here even when no wait blocks.
		p.mon.Lock()
		aborted := p.aborted
		p.mon.Unlock()
		if aborted {
			return ErrAborted
		}
		if p.crashIter > 0 && k >= p.crashIter {
			// The scheduled halt lands at the top of the iteration —
			// before any send or compute — so the final update the
			// crashed worker contributed is tagged crashIter−1 on both
			// planes: a deterministic cut.
			p.note(TraceEvent{Kind: TraceCrash, Iter: k})
			return ErrCrashed
		}
		if p.applyMembership(k) && cfg.grants() {
			// A re-admitted in-neighbor holds no grant of ours yet.
			for _, j := range p.in {
				p.rt.GrantTokens(j, k)
			}
		}
		p.note(TraceEvent{Kind: TraceAdvance, Iter: k})
		switch cfg.Mode {
		case ModePS:
			p.iterPS(k)
		case ModeADPSGD:
			p.iterADPSGD(k)
		default:
			p.iterate(k)
		}

		next := k + 1
		if cfg.MaxJump > 0 {
			next = p.jumpTarget(k)
			if next > k+1 {
				p.renewParams(next - 1)
				p.trainer.ResetOptimizer()
				p.mon.Lock()
				p.stats.Jumps++
				p.stats.IterationsSkipped += next - k - 1
				p.mon.Unlock()
				p.note(TraceEvent{Kind: TraceJump, Iter: next, From: k})
			}
		}
		if cfg.MaxIG > 0 {
			p.awaitGrants(next)
			for _, j := range p.in {
				p.rt.GrantTokens(j, next)
			}
		}
		k = next
	}
	if cfg.Mode == ModeADPSGD {
		p.finishADPSGD()
	}
	return nil
}

// iterate is one iteration of the Hop family on the paper's two
// computation graphs. The serial graph of Fig. 2(a) (Config.Serial, and
// always NOTIFY-ACK, §3.3) computes and applies on x_k, then sends and
// reduces: fewer, longer iterations, exact gradients (§3.2). The
// parallel graph of Fig. 2(b) sends x_k and computes on it while the
// blocking Recv runs; gradients computed on x_k are applied after the
// Reduce. NOTIFY-ACK adds its ACK edges around the exchange as grants:
// Send(k) waits for every live out-neighbor's grant of k, and finishing
// k grants k+1. Prague (prague.go) names the step's group, which
// narrows the send, the reduce's quorum and its death rule to the
// group's members.
func (p *Protocol) iterate(k int) {
	t := p.trainer
	x := t.Params()
	notifyAck := p.cfg.Mode == ModeNotifyAck
	serial := p.cfg.Serial || notifyAck
	if pc := p.cfg.Prague; pc != nil {
		p.group = pragueGroupOf(p.pragueRng, pc.Seed, k, p.cfg.Graph.N(), pc.GroupSize, p.id)
		p.note(TraceEvent{Kind: TraceGroup, Iter: k, Members: p.group})
	}
	if serial {
		p.rt.Compute(k, p.computeFn)
		p.rt.EndCompute()
		t.Apply(p.grads)
	}
	if notifyAck {
		p.awaitGrants(k)
	}

	// Send x_k (self-loop delivered locally for free, §3.1); the
	// queued snapshot is the worker's own buffer.
	snap := p.rt.GetParams(len(x))
	tensor.Copy(snap, x)
	p.queue.Enqueue(Update{Params: snap, Iter: k, From: p.id})
	p.sendAll(k, snap)

	if serial {
		// Reduce directly into x: the snapshot above (not x itself) is
		// what sits in the queue, so no aggregated vector aliases the
		// destination.
		p.recvReduceInto(x, k, nil)
	} else {
		// Compute gradients on x_k, overlapped with the Recv below.
		p.rt.Compute(k, p.computeFn)

		// Recv and Reduce (mode-dependent) into the persistent reduce
		// scratch — not into x, which stays untouched until the compute
		// overlap below ends: the gradient step may still be reading it.
		reduced := p.reduceScratch(len(x))
		p.recvReduceInto(reduced, k, nil)

		// The iteration ends no earlier than the compute does.
		p.rt.EndCompute()

		// Apply gradients to the reduced parameters.
		tensor.Copy(x, reduced)
		t.Apply(p.grads)
	}
	if notifyAck {
		for _, j := range p.in {
			p.rt.GrantTokens(j, k+1)
		}
	}

	p.rt.Iterated(k, p.loss)
}

// awaitGrants blocks until the grant gate admits iteration next. A
// dead out-neighbor leaves p.out, so its pending death opens the gate.
func (p *Protocol) awaitGrants(next int) {
	p.await(p.gate, func() bool { return p.grantedAllLocked(next) },
		p.out, func(d int) bool { return p.peerOf(d).granted+p.cfg.MaxIG < next })
}

// grantedAllLocked is the grant gate: it reports whether every live
// out-neighbor's grant admits iteration next, and if so enters it (a
// NOTIFY-ACK Send is already in it). Caller holds the monitor.
func (p *Protocol) grantedAllLocked(next int) bool {
	for _, j := range p.out {
		if p.peerOf(j).granted+p.cfg.MaxIG < next {
			return false
		}
	}
	p.curIter = next
	return true
}

// sendAll sends the iteration-k snapshot to all out-going neighbors —
// under Prague only those in the step's group — applying the §6.2(b)
// receiver-iteration check when configured.
func (p *Protocol) sendAll(k int, snap []float64) {
	for _, j := range p.out {
		if p.group != nil && !containsInt(p.group, j) {
			continue
		}
		if p.cfg.SendCheck && p.rt.PeerIter(j) > k {
			p.mon.Lock()
			p.stats.SendsSuppressed++
			p.mon.Unlock()
			continue
		}
		p.rt.Send(j, Update{Params: snap, Iter: k, From: p.id})
	}
}

// recvReduceInto performs the mode-appropriate Recv + Reduce for
// iteration k, writing the reduced parameter vector into dst. self nil
// reduces the worker's own update queued for k (§3.1); non-nil, self
// stands in for it — the §5 pre-jump refresh passes the current
// parameters — and is reduced first. dst must not alias any queued
// update (snapshots are copies, never x itself) nor self.
func (p *Protocol) recvReduceInto(dst []float64, k int, self []float64) {
	if p.cfg.Staleness > 0 {
		p.recvReduceStaleInto(dst, k, self)
		return
	}
	own := 1
	if self != nil {
		own = 0
	}
	ups := p.recv(k, own)
	if p.group != nil {
		p.noteGroupExclusions(ups, k)
	}
	p.meanInto(dst, self, ups)
	p.recycleUpdates(ups)
}

// recv is the Recv of iteration iter (Figs. 4 and 8): it blocks until
// enough updates tagged iter are queued, then dequeues every one of
// them (UpdateQueue.DequeueIterAtLeast). Enough is one per live
// in-neighbor less the Backup slack, plus own (1 when the worker's own
// update is queued) and never fewer than own, so a worker whose every
// in-neighbor died trains solo; a Prague step needs its group quorum
// instead. It is re-evaluated per pass because a peer death shrinks
// the in-set mid-wait. An in-neighbor's pending death is applied only
// while its tagged-iter update is absent — and under Prague only for a
// member of the step's group: a non-member's death stays pending until
// a shared step blocks on it.
func (p *Protocol) recv(iter, own int) []Update {
	var ups []Update
	p.await(p.queue.cond, func() bool {
		need := max(len(p.in)+own-p.cfg.Backup, own)
		if p.group != nil {
			need = p.groupQuorum()
		}
		var ok bool
		ups, ok = p.queue.takeIterLocked(need, iter)
		return ok
	}, p.in, func(d int) bool {
		return (p.group == nil || containsInt(p.group, d)) && !p.queue.hasIterFromLocked(d, iter)
	})
	return ups
}

// recvReduceStaleInto implements §4.4: keep the newest update per
// in-neighbor, require it to be at most s iterations old (blocking for
// a fresh one otherwise), and aggregate with the Eq. 2 weights into
// dst. A non-nil self takes the worker's own slot first, at the oldest
// admissible weight, in place of its queued update.
func (p *Protocol) recvReduceStaleInto(dst []float64, k int, self []float64) {
	minIter := k - p.cfg.Staleness
	vecs, weights := p.vecScratch[:0], p.weightScratch[:0]
	peers := append(append(p.peerScratch[:0], p.in...), p.id)
	p.peerScratch = peers
	if self != nil {
		vecs, weights = append(vecs, self), append(weights, 1)
		peers = p.in
	}
	for _, j := range peers {
		newest := p.newestFrom(j, minIter)
		// Include j only if an update actually arrived this iteration
		// and is within the bound; j's older information is already
		// folded into x by earlier reduces (§4.4).
		if newest.Params != nil && newest.Iter >= minIter {
			vecs = append(vecs, newest.Params)
			weights = append(weights, staleWeight(newest.Iter-minIter+1))
			p.noteStaleness(k - newest.Iter)
		} else {
			p.rt.RecycleParams(newest.Params)
			p.note(TraceEvent{Kind: TraceStaleSkip, Iter: k, From: j})
		}
	}
	// The self update always satisfies the bound, so vecs is never
	// empty. Every drained buffer is dead once reduced; self is not
	// the protocol's to give back.
	p.vecScratch, p.weightScratch = vecs, weights
	tensor.WeightedMean(dst, vecs, weights)
	if self != nil {
		vecs = vecs[1:]
	}
	for _, v := range vecs {
		p.rt.RecycleParams(v)
	}
}

// staleWeight is Eq. 2's aggregation weight for an update fresh =
// iter − (k−s) + 1 steps inside the staleness window, floored at 1.
func staleWeight(fresh int) float64 { return float64(max(fresh, 1)) }

// newestFrom drains sender j's queued updates, keeps the newest, and
// blocks until the newest iteration ever received from j reaches
// minIter (the Fig. 9 staleness gate). A pending death of j is applied
// while the gate is shut, and a dead j ends the wait with whatever was
// drained. Superseded updates are recycled on the way.
func (p *Protocol) newestFrom(j, minIter int) Update {
	newest := Update{Iter: -1}
	r := p.peerOf(j)
	p.await(p.queue.cond, func() bool {
		for _, u := range p.queue.drainFromLocked(j) {
			if u.Iter > newest.Iter {
				u, newest = newest, u
			}
			p.rt.RecycleParams(u.Params)
		}
		r.iterRecv = max(r.iterRecv, newest.Iter)
		return r.iterRecv >= minIter || r.deadIn
	}, p.in, func(d int) bool { return d == j })
	return newest
}

// jumpTrigger is §5's trigger: a worker jumps only when it is at least
// this many iterations behind all of its out-going neighbors. A jump
// of 1 would be the normal advance.
const jumpTrigger = 2

// jumpTarget implements the §5 jump: at the end of iteration k, read
// the token counts granted_j − k + max_ig toward this worker's
// out-going neighbors; their minimum less max_ig is min_j Iter(j) − k.
// A worker at least jumpTrigger iterations behind all of them jumps
// forward, bounded by MaxJump and by not surpassing any out-going
// neighbor (§5's "intuitive upper-bound" max_jump − max_ig).
func (p *Protocol) jumpTarget(k int) int {
	if len(p.out) == 0 {
		return k + 1
	}
	p.mon.Lock()
	granted := int(^uint(0) >> 1)
	for _, j := range p.out {
		granted = min(granted, p.peerOf(j).granted)
	}
	p.mon.Unlock()
	behind := granted - k // = min_j Iter(j) − Iter(me)
	if behind < jumpTrigger {
		return k + 1
	}
	// No worker grants past MaxIter, so no jump passes it.
	return k + min(behind, p.cfg.MaxJump)
}

// renewParams implements the pre-jump refresh of §5: Recv(kr) with the
// active mode's semantics, reduced together with the worker's own
// current parameters, so the post-jump model is not stale.
func (p *Protocol) renewParams(kr int) {
	x := p.trainer.Params()
	reduced := p.reduceScratch(len(x))
	p.recvReduceInto(reduced, kr, x)
	tensor.Copy(x, reduced)
}

func (p *Protocol) noteStaleness(age int) {
	p.mon.Lock()
	if age > p.maxStale {
		p.maxStale = age
	}
	p.mon.Unlock()
}

// meanInto overwrites dst with the element-wise mean of self (when
// non-nil, summed first) and the dequeued updates' parameters (the
// Reduce of §3.2). dst must not alias self or any update's buffer.
func (p *Protocol) meanInto(dst, self []float64, ups []Update) {
	if self == nil && len(ups) == 0 {
		panic("core: Reduce over zero updates")
	}
	vecs := p.vecScratch[:0]
	if self != nil {
		vecs = append(vecs, self)
	}
	for _, u := range ups {
		vecs = append(vecs, u.Params)
	}
	p.vecScratch = vecs
	tensor.Mean(dst, vecs)
}

// recycleUpdates hands fully-reduced update buffers back to the
// runtime. Only call it with terminally dequeued updates — removed
// from the queue, reduced, and never referenced again.
func (p *Protocol) recycleUpdates(ups []Update) {
	for i := range ups {
		p.rt.RecycleParams(ups[i].Params)
		ups[i].Params = nil
	}
}

// reduceScratch returns the persistent reduce target used by the
// parallel computation graph, which must leave x untouched until the
// compute overlap ends. renewParams, the PS server and AD-PSGD's serve
// reuse it: none of them overlaps a compute.
func (p *Protocol) reduceScratch(n int) []float64 {
	if cap(p.reduceBuf) < n {
		p.reduceBuf = make([]float64, n)
	}
	return p.reduceBuf[:n]
}
