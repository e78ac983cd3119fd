package core

// Elastic membership (DESIGN.md §6): how one Protocol instance reforms
// its iteration graph when a peer is declared dead, and re-admits the
// peer when it comes back.
//
// Declaration is eager, application is lazy. DeclarePeerDead only
// marks the peer pending and wakes every blocked wait; the death is
// *applied* — peer dropped from the in/out-neighbor sets, its token
// queue released, its pending NOTIFY-ACK edges forgiven — inside a
// blocking wait that provably cannot proceed without the dead peer's
// data. That guard is what makes the applied iteration a deterministic
// function of protocol state rather than of detection timing: a
// survivor whose reduce at iteration k still holds the dead peer's
// final tagged-k update consumes it exactly as if the peer were alive,
// and removes the peer at the first iteration whose update is actually
// missing. For crash schedules (a halt at the top of iteration c, so
// the last update sent is tagged c−1) every survivor therefore records
// the death at the same iteration on the simulator and on TCP — the
// membership-event differential contract.
//
// Rejoin is a two-stage re-admission, because requirement and supply
// are asymmetric: a restarted peer can only send updates from its
// rejoin iteration k0 onward, and it cannot even pick k0 until its
// neighbors resume sending to it. Stage one (any message from a dead
// peer, applied at the next loop top): re-admit the out-edge — resume
// sending updates and taking tokens, with the token counter rearmed at
// max_ig. Stage two (applied at the loop top of the first iteration
// k ≥ k0, where k0 is the tag of the peer's first real update):
// re-admit the in-edge — require the peer's updates in reduces and
// grant it tokens. Requiring the in-edge any earlier would block on
// tagged-k updates the rejoiner never sends. The token invariant of
// Theorem 2 is re-established over the new membership, re-based at k0
// rather than carried through the outage.

import "hop/internal/tensor"

// DeclarePeerDead marks peer as failed: the next wait that cannot
// proceed without the peer's data reforms the graph around it. Safe
// from any goroutine; a no-op unless FaultTolerance is on, and for
// non-neighbors, self, and peers already fully dead.
func (p *Protocol) DeclarePeerDead(peer int) {
	if !p.cfg.FaultTolerance || peer == p.id {
		return
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	inG := containsInt(p.gin, peer)
	outG := containsInt(p.gout, peer)
	if !inG && !outG {
		return
	}
	fullyDead := (!inG || p.deadIn[peer]) && (!outG || p.deadOut[peer])
	if fullyDead && !p.pendingJoin[peer] {
		return
	}
	if p.pendingDead[peer] {
		return
	}
	p.pendingDead[peer] = true
	// A death during a rejoin window cancels the rejoin.
	delete(p.pendingJoin, peer)
	delete(p.joinFirst, peer)
	p.wakeAllLocked()
}

// DeadPeers returns the graph neighbors currently removed from this
// worker's iteration graph, in deterministic graph order.
func (p *Protocol) DeadPeers() []int {
	if !p.cfg.FaultTolerance {
		return nil
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	var out []int
	for _, j := range p.gnbrs {
		if p.deadIn[j] || p.deadOut[j] {
			out = append(out, j)
		}
	}
	return out
}

// noteAlive records evidence of life from a delivered message: it
// clears any pending death (pre-death messages always precede the
// death notice on both planes, so a cleared declaration was stale or
// the peer restarted) and, for a dead peer, begins the rejoin
// bookkeeping. Updates with iter ≥ 1 from a dead in-peer pin k0, the
// first iteration the rejoiner will actually send.
func (p *Protocol) noteAlive(from, iter int, isUpdate bool) {
	if !p.cfg.FaultTolerance || from == p.id {
		return
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	delete(p.pendingDead, from)
	if p.deadIn[from] || p.deadOut[from] {
		p.pendingJoin[from] = true
		if isUpdate && iter > 0 && p.deadIn[from] {
			if _, ok := p.joinFirst[from]; !ok {
				p.joinFirst[from] = iter
			}
		}
	}
}

// applyMembership runs at the top of iteration k, on the Run
// goroutine: it re-admits rejoining peers whose stage conditions hold
// (see the package comment) and records the worker's current iteration
// for death events applied mid-iteration.
func (p *Protocol) applyMembership(k int) {
	if !p.cfg.FaultTolerance {
		return
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	p.curIter = k
	if len(p.pendingJoin) == 0 && len(p.joinFirst) == 0 {
		return
	}
	for _, d := range p.gnbrs {
		joined := false
		if p.pendingJoin[d] && p.deadOut[d] {
			// Stage one: resume sending to (and taking tokens from)
			// the peer — it needs our updates before it can send any.
			delete(p.deadOut, d)
			p.rebuildOutLocked()
			if tq := p.tokens[d]; tq != nil {
				tq.resetLocked(p.cfg.MaxIG)
			}
			joined = true
		}
		if k0, ok := p.joinFirst[d]; ok && p.deadIn[d] && k >= k0 {
			// Stage two: require the peer's updates again from k0, the
			// first iteration it actually sends.
			delete(p.deadIn, d)
			delete(p.joinFirst, d)
			p.rebuildInLocked()
			joined = true
		}
		if !p.deadIn[d] && !p.deadOut[d] {
			delete(p.pendingJoin, d)
		}
		if joined && !p.joinLogged[d] {
			p.joinLogged[d] = true
			p.stats.PeersJoined++
			p.note(TraceEvent{Kind: TraceJoin, Iter: k, From: d})
		}
	}
}

// applyDeathLocked reforms the graph around dead peer d: drops it from
// the live in/out views, releases its token queue so takes stop
// counting the departed edge, and records the membership event. Called
// with the monitor held, only from the Run goroutine's blocking waits
// (applyDeathsLocked).
func (p *Protocol) applyDeathLocked(d int) {
	delete(p.pendingDead, d)
	delete(p.pendingJoin, d)
	delete(p.joinFirst, d)
	delete(p.joinLogged, d)
	changed := false
	if containsInt(p.gin, d) && !p.deadIn[d] {
		p.deadIn[d] = true
		p.rebuildInLocked()
		changed = true
	}
	if containsInt(p.gout, d) && !p.deadOut[d] {
		p.deadOut[d] = true
		p.rebuildOutLocked()
		if tq := p.tokens[d]; tq != nil {
			tq.releaseLocked()
		}
		changed = true
	}
	if !changed {
		return
	}
	p.stats.PeersLost++
	p.note(TraceEvent{Kind: TraceDeath, Iter: p.curIter, From: d})
}

func (p *Protocol) rebuildInLocked() {
	in := make([]int, 0, len(p.gin))
	for _, j := range p.gin {
		if !p.deadIn[j] {
			in = append(in, j)
		}
	}
	p.in = in
}

func (p *Protocol) rebuildOutLocked() {
	out := make([]int, 0, len(p.gout))
	for _, j := range p.gout {
		if !p.deadOut[j] {
			out = append(out, j)
		}
	}
	p.out = out
}

// wakeAllLocked wakes every wait this worker may be blocked in so it
// re-evaluates against a pending death or an abort. Caller holds the
// monitor.
func (p *Protocol) wakeAllLocked() {
	p.queue.cond.Broadcast()
	p.acks.cond.Broadcast()
	for _, tq := range p.tokens {
		tq.cond.Broadcast()
	}
}

// applyDeathsLocked is the death rule of a blocked wait (Protocol.await):
// it applies the pending death of each peer d in peers, in order, for
// which missing(d) reports that the wait still lacks d's data, and
// reports whether it applied any. Only such a wait may apply a death: a
// dead peer's already-arrived final update (or ACK) must be consumed
// exactly as if the peer were alive, or the applied iteration would
// depend on notice timing. Applying replaces p.in and p.out with fresh
// slices and never writes the one being ranged over.
func (p *Protocol) applyDeathsLocked(peers []int, missing func(int) bool) bool {
	if len(p.pendingDead) == 0 {
		return false
	}
	applied := false
	for _, d := range peers {
		if p.pendingDead[d] && missing(d) {
			p.applyDeathLocked(d)
			applied = true
		}
	}
	return applied
}

// joinSync is the rejoin handshake a restarted worker runs before its
// first iteration. Announce: an iteration-0 update to every
// out-neighbor and a zero-count token grant to the remaining
// in-neighbors — either message re-admits this worker's out-edge at
// the receiver (stage one there), and the tagged-0 update is discarded
// as stale by any real dequeue. Observe: wait for one update from
// every surviving in-neighbor; the newest seeds the local model and
// k0 = newest+1 becomes the first iteration this worker executes — so
// every in-neighbor is at an iteration < k0 and will still send the
// tagged-k0 updates the first reduce needs. With no survivors to
// synchronize with, the worker finishes immediately.
func (p *Protocol) joinSync() int {
	x := p.trainer.Params()
	for _, j := range p.out {
		p.rt.Send(j, Update{Params: x, Iter: 0, From: p.id})
	}
	for _, j := range p.in {
		if !containsInt(p.out, j) {
			p.rt.GrantTokens(j, 0, 0)
		}
	}
	newest := Update{Iter: -1}
	for _, j := range append([]int(nil), p.in...) {
		if p.isDeadIn(j) {
			continue
		}
		u := p.newestFrom(j, 0)
		if u.Iter > newest.Iter {
			u, newest = newest, u
		}
		p.rt.RecycleParams(u.Params)
	}
	if newest.Params == nil {
		p.note(TraceEvent{Kind: TraceRejoin, Iter: p.cfg.MaxIter})
		return p.cfg.MaxIter
	}
	tensor.Copy(x, newest.Params)
	p.rt.RecycleParams(newest.Params)
	k0 := newest.Iter + 1
	p.note(TraceEvent{Kind: TraceRejoin, Iter: k0})
	return k0
}

func (p *Protocol) isDeadIn(j int) bool {
	p.mon.Lock()
	defer p.mon.Unlock()
	return p.deadIn[j]
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
