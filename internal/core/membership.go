package core

// Elastic membership (DESIGN.md §6): how one Protocol instance reforms
// its iteration graph when a peer is declared dead, and re-admits the
// peer when it comes back.
//
// Declaration is eager, application is lazy. DeclarePeerDead only
// marks the peer pending and wakes every blocked wait; the death is
// *applied* — peer dropped from the in/out-neighbor sets, which opens
// its grant gate (token queues and NOTIFY-ACK alike) — inside a
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
// neighbors resume sending to it. Stage one (the rejoiner's announce,
// applied at the next loop top): re-admit the out-edge — resume
// sending updates and gating on the peer's grants, taking its granted
// iteration as at least the current one, k. Stage two (applied at the
// loop top of the first iteration k ≥ k0, where k0 is the tag of the
// peer's first real update): re-admit the in-edge — require the peer's
// updates in reduces and grant it tokens, starting with k itself: the
// rejoiner has seen no grant of ours, and may not get within max_ig of
// k without one. Requiring the in-edge any earlier would block on
// tagged-k updates the rejoiner never sends.
// The rejoiner grants k0 as it enters k0, like every advance, and
// takes its own out-neighbors' grants as at least k0, so the token
// invariant of Theorem 2 is re-based at the rejoin rather than carried
// through the outage.

import "hop/internal/tensor"

// DeclarePeerDead marks peer as failed: the next wait that cannot
// proceed without the peer's data reforms the graph around it. Safe
// from any goroutine; a no-op unless FaultTolerance is on, and for
// non-neighbors, self, and peers already fully dead.
func (p *Protocol) DeclarePeerDead(peer int) {
	r := p.peerOf(peer)
	if !p.cfg.FaultTolerance || peer == p.id || r == nil {
		return
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	fullyDead := (r.deadIn || !containsInt(p.gin, peer)) && (r.deadOut || !containsInt(p.gout, peer))
	if fullyDead && !r.joining || r.dying {
		return
	}
	r.dying = true
	p.dying++
	// A death during a rejoin window cancels the rejoin.
	r.joining, r.k0 = false, 0
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
		if r := p.peerOf(j); r.deadIn || r.deadOut {
			out = append(out, j)
		}
	}
	return out
}

// noteAlive records evidence of life from a delivered message whose
// sender was at iteration iter (an update's tag, a grant's iteration).
// Pre-death messages always precede the death notice on both planes
// (the simulated fabric holds a notice behind its sender's data), so a
// message from a peer declared or removed dead is from a restarted
// incarnation or shows the declaration was stale. An iteration-0 update or grant is a
// restart's announce (joinSync): it marks the rejoin and leaves a
// pending death to the lazy rule, since the old incarnation's updates
// are still missing. Any other message clears a pending death outside
// a rejoin and begins the rejoin of a removed peer. While joining, an
// update or grant with iter ≥ 1 from a graph in-neighbor pins k0, the
// first iteration the rejoiner actually sends.
func (p *Protocol) noteAlive(from, iter int) {
	if !p.cfg.FaultTolerance {
		return
	}
	r := p.peerOf(from)
	if r == nil {
		return
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	if iter == 0 && (r.dying || r.deadIn || r.deadOut) {
		r.joining = true
		return
	}
	if !r.joining {
		p.undeclareLocked(r)
		r.joining = r.deadIn || r.deadOut
	}
	if r.joining && iter > 0 && r.k0 == 0 && containsInt(p.gin, from) {
		r.k0 = iter
	}
}

// applyMembership runs at the top of iteration k, on the Run
// goroutine: it re-admits rejoining peers whose stage conditions hold
// (see the package comment), records the worker's current iteration
// for death events applied mid-iteration, and reports whether it
// re-admitted an in-edge.
func (p *Protocol) applyMembership(k int) (inJoined bool) {
	if !p.cfg.FaultTolerance {
		return false
	}
	p.mon.Lock()
	defer p.mon.Unlock()
	p.curIter = k
	for _, d := range p.gnbrs {
		r := p.peerOf(d)
		if !r.joining {
			continue
		}
		joined := false
		if r.deadOut {
			// Stage one: resume sending to (and gating on grants
			// from) the peer — it needs our updates before it can
			// send any.
			r.deadOut = false
			r.granted = max(r.granted, k)
			joined = true
		}
		if r.deadIn && r.k0 > 0 && k >= r.k0 {
			// Stage two: require the peer's updates again from k0, the
			// first iteration it actually sends.
			r.deadIn, r.k0 = false, 0
			joined, inJoined = true, true
		}
		if !joined {
			continue
		}
		p.rebuildLocked()
		r.joining = r.deadIn || r.deadOut
		if !r.joinLogged {
			r.joinLogged = true
			p.stats.PeersJoined++
			p.note(TraceEvent{Kind: TraceJoin, Iter: k, From: d})
		}
	}
	return inJoined
}

// applyDeathLocked reforms the graph around dead peer d: drops it from
// the live in/out views, so no wait counts the departed edges, and
// records the membership event. A restart announced before the death
// was applied stays under way. Called with the monitor held, only from
// the Run goroutine's blocking waits (applyDeathsLocked).
func (p *Protocol) applyDeathLocked(d int) {
	r := p.peerOf(d)
	p.undeclareLocked(r)
	r.joinLogged = false
	changed := false
	if containsInt(p.gin, d) && !r.deadIn {
		r.deadIn = true
		changed = true
	}
	if containsInt(p.gout, d) && !r.deadOut {
		r.deadOut = true
		changed = true
	}
	if !changed {
		return
	}
	p.rebuildLocked()
	p.stats.PeersLost++
	p.note(TraceEvent{Kind: TraceDeath, Iter: p.curIter, From: d})
}

// undeclareLocked clears r's declared death, if any.
func (p *Protocol) undeclareLocked(r *peer) {
	if r.dying {
		r.dying = false
		p.dying--
	}
}

// rebuildLocked replaces the live neighbor views with fresh slices of
// the graph neighbors whose edges are not removed.
func (p *Protocol) rebuildLocked() {
	in, out := make([]int, 0, len(p.gin)), make([]int, 0, len(p.gout))
	for _, j := range p.gin {
		if !p.peerOf(j).deadIn {
			in = append(in, j)
		}
	}
	for _, j := range p.gout {
		if !p.peerOf(j).deadOut {
			out = append(out, j)
		}
	}
	p.in, p.out = in, out
}

// wakeAllLocked wakes every wait this worker may be blocked in so it
// re-evaluates against a pending death or an abort. Caller holds the
// monitor.
func (p *Protocol) wakeAllLocked() {
	p.queue.cond.Broadcast()
	p.gate.Broadcast()
}

// applyDeathsLocked is the death rule of a blocked wait (Protocol.await):
// it applies the pending death of each peer d in peers, in order, for
// which missing(d) reports that the wait still lacks d's data, and
// reports whether it applied any. Only such a wait may apply a death: a
// dead peer's already-arrived final update (or grant) must be consumed
// exactly as if the peer were alive, or the applied iteration would
// depend on notice timing. Applying replaces p.in and p.out with fresh
// slices and never writes the one being ranged over.
func (p *Protocol) applyDeathsLocked(peers []int, missing func(int) bool) bool {
	if p.dying == 0 {
		return false
	}
	applied := false
	for _, d := range peers {
		if p.peerOf(d).dying && missing(d) {
			p.applyDeathLocked(d)
			applied = true
		}
	}
	return applied
}

// joinSync is the rejoin handshake a restarted worker runs before its
// first iteration. Announce: an iteration-0 update to every
// out-neighbor and an iteration-0 grant to the remaining in-neighbors
// — either message re-admits this worker's out-edge at the receiver
// (stage one there); the tagged-0 update is discarded as stale by any
// real dequeue, and the grant raises nothing. Observe: wait for one
// update from every surviving in-neighbor; the newest seeds the local
// model and k0 = newest+1 becomes the first iteration this worker
// executes — so every in-neighbor is at an iteration < k0 and will
// still send the tagged-k0 updates the first reduce needs. Entering
// k0, the worker grants it to its in-neighbors and takes every
// out-neighbor's grant as at least k0. With no survivors to
// synchronize with, the worker finishes immediately.
func (p *Protocol) joinSync() int {
	x := p.trainer.Params()
	for _, j := range p.out {
		p.rt.Send(j, Update{Params: x, Iter: 0, From: p.id})
	}
	for _, j := range p.in {
		if !containsInt(p.out, j) {
			p.rt.GrantTokens(j, 0)
		}
	}
	newest := Update{Iter: -1}
	// No death is applied before this loop, and each wait applies only
	// its own peer's, so every j is live or pending when reached.
	for _, j := range p.in {
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
	if p.cfg.grants() {
		p.mon.Lock()
		p.curIter = k0
		for _, j := range p.out {
			// A grant that arrived before curIter was set read against
			// iteration 0: the queue's high-water starts here.
			r := p.peerOf(j)
			r.granted = max(r.granted, k0)
			r.tokensHigh = r.granted - k0 + p.cfg.MaxIG
		}
		p.mon.Unlock()
		for _, j := range p.in {
			p.rt.GrantTokens(j, k0)
		}
	}
	return k0
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
