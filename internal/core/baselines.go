package core

// The paper's two baselines as modes of the one protocol state machine
// (DESIGN.md §8.4): the bulk-synchronous parameter server of §7.3.2 /
// Fig. 13 (ModePS) and AD-PSGD, the asynchronous pairwise averaging §5
// argues against (ModeADPSGD). Both use the Runtime primitives as they
// are — Send/Deliver into the update queue, Compute/EndCompute,
// Observe — so the simulator runs them with decision traces and
// the compute plane, and the parameter server also runs on live TCP.

import (
	"math/rand"

	"hop/internal/tensor"
)

// iterPS is one BSP round on the star graph. The server (node 0) waits
// for every leaf's iteration-k gradients, applies their mean to the
// master replica and sends the new parameters to every leaf; it never
// computes and never reports an iteration. A leaf computes, sends its
// gradients to the server and adopts the round's parameters.
func (p *Protocol) iterPS(k int) {
	x := p.trainer.Params()
	if p.id == 0 {
		ups := p.recv(k, 0) // every leaf's gradients
		mean := p.reduceScratch(len(x))
		p.meanInto(mean, nil, ups)
		p.recycleUpdates(ups)
		p.trainer.Apply(mean)
		snap := tensor.Clone(x)
		for _, j := range p.out {
			p.rt.Send(j, Update{Params: snap, Iter: k, From: p.id})
		}
		return
	}
	start := p.rt.Now()
	d := p.rt.Compute(k, p.computeFn)
	p.rt.EndCompute(start + d)
	p.rt.Send(0, Update{Params: tensor.Clone(p.grads), Iter: k, From: p.id})
	ups := p.recv(k, 0) // the server's parameters, its one in-neighbor
	tensor.Copy(x, ups[0].Params)
	p.recycleUpdates(ups)
	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, p.loss, p.rt.Now())
	}
}

// initADPSGD lets the graph decide who initiates: on a bipartite graph
// colour 0 initiates and colour 1 only serves (§5's deadlock-free
// formulation); on any other graph every worker initiates, the
// formulation §5 criticises. The pick RNG derives from Config.Seed
// like the mini-batch RNG.
func (p *Protocol) initADPSGD() {
	g := p.cfg.Graph
	colour, err := g.Bipartition()
	initiates := func(w int) bool { return len(g.Out(w)) > 0 && (err != nil || colour[w] == 0) }
	p.initiator = initiates(p.id)
	for _, j := range p.in {
		if initiates(j) {
			p.initiatorsIn++
		}
	}
	p.pick = rand.New(rand.NewSource(p.cfg.Seed + int64(p.id)*7919 + 31))
}

// iterADPSGD is one AD-PSGD iteration: serve the averaging requests
// queued so far, compute, serve again, then, as an initiator, send a
// snapshot to a random out-neighbour and block — serving nothing —
// until it replies with the pairwise average. The gradients are
// applied to the averaged parameters.
func (p *Protocol) iterADPSGD(k int) {
	x := p.trainer.Params()
	p.serve(false)
	start := p.rt.Now()
	d := p.rt.Compute(k, p.computeFn)
	p.rt.EndCompute(start + d)
	p.serve(false)
	if p.initiator {
		j := p.out[p.pick.Intn(len(p.out))]
		p.rt.Send(j, Update{Params: tensor.Clone(x), Iter: k, From: p.id})
		reply, _ := p.takeMatching(isReply, true)
		tensor.Copy(x, reply.Params)
	}
	p.trainer.Apply(p.grads)
	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, p.loss, p.rt.Now())
	}
}

// serve answers queued averaging requests in arrival order — x becomes
// the mean of x and the requester's snapshot, and goes back as the
// reply — and counts done markers (updates without parameters). With
// wait set it first blocks for one message.
func (p *Protocol) serve(wait bool) {
	for {
		u, ok := p.takeMatching(isRequest, wait)
		if !ok {
			return
		}
		wait = false
		if u.Params == nil {
			p.dones++
			continue
		}
		x := p.trainer.Params()
		avg := p.reduceScratch(len(x))
		tensor.Mean(avg, [][]float64{x, u.Params})
		tensor.Copy(x, avg)
		p.rt.Send(u.From, Update{Params: tensor.Clone(x), Iter: u.Iter, From: p.id, Reply: true})
	}
}

// finishADPSGD ends a MaxIter run: an initiator tells its
// out-neighbours it is done, and every worker keeps serving until each
// initiating in-neighbour has. Delivery is FIFO per sender, so by then
// every request this worker will ever receive has been answered.
func (p *Protocol) finishADPSGD() {
	if p.initiator {
		for _, j := range p.out {
			p.rt.Send(j, Update{Iter: p.cfg.MaxIter, From: p.id})
		}
	}
	for p.dones < p.initiatorsIn {
		p.serve(true)
	}
}

// takeMatching removes the oldest queued message match accepts; with
// wait set it blocks until there is one, otherwise it reports false at
// once. AD-PSGD rejects fault tolerance, so no death is ever applied.
func (p *Protocol) takeMatching(match func(Update) bool, wait bool) (u Update, ok bool) {
	p.await(p.queue.cond, func() bool {
		u, ok = p.queue.takeFirstLocked(match)
		return ok || !wait
	}, nil, nil)
	return u, ok
}

func isRequest(u Update) bool { return !u.Reply }
func isReply(u Update) bool   { return u.Reply }
