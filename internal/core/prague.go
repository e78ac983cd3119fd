package core

// Prague partial all-reduce (the companion paper "Heterogeneity-Aware
// Asynchronous Decentralized Training"): instead of Hop's neighbor
// gossip, every iteration partitions the whole cluster into small
// randomized groups and averages parameters within the scheduled
// group only. The schedule is *static*: a seeded deterministic
// function of (seed, step), so every worker — simulated or live —
// computes the identical partition locally, with no coordinator and
// no exchange of group metadata. Stragglers are tolerated by quorum:
// a group's reduce proceeds once Quorum member updates (including the
// worker's own) are present, folding in any extras that have already
// arrived, instead of waiting for the full group. See DESIGN.md §8.
//
// The protocol reuses the existing Runtime primitives unchanged —
// Send/Deliver into the same tagged UpdateQueue, Compute/EndCompute
// for the overlapped computation graph, ObserveAdvance for the gap
// tracker — so both the simulator and the live TCP runtime execute
// this file verbatim. The graph is a placement/cost substrate only:
// groups span all n workers regardless of topology, which is why
// NewProtocol widens the in/out neighbor views to the full peer set
// under ModePrague (and why elastic membership, which operates on
// those views, works for Prague without modification).

import (
	"fmt"
	"math/rand"
	"sort"

	"hop/internal/tensor"
)

// PragueConfig configures the Prague partial all-reduce protocol
// (Config.Prague, required when Mode == ModePrague).
type PragueConfig struct {
	// GroupSize is the target partial all-reduce group size, 2 ≤
	// GroupSize ≤ n. When n is not a multiple, the remainder forms one
	// smaller trailing group (possibly a singleton, which trains solo
	// that step).
	GroupSize int

	// Quorum is how many member updates — the worker's own included —
	// a group reduce waits for before proceeding; 0 means the full
	// live group (every member not removed by elastic membership).
	// This is the deterministic realization of the paper's straggler
	// deadline: count-based rather than wall-clock, so a full-quorum
	// spec is timing-forced and produces byte-identical decision
	// traces on the simulator and on TCP.
	Quorum int

	// Seed seeds the group schedule. Every worker in the cluster must
	// share it — it is the whole coordination mechanism.
	Seed int64
}

// validate checks the Prague knobs against the cluster size.
func (pc *PragueConfig) validate(n int) error {
	if pc.GroupSize < 2 {
		return fmt.Errorf("core: prague group size must be >=2, got %d", pc.GroupSize)
	}
	if pc.GroupSize > n {
		return fmt.Errorf("core: prague group size %d exceeds cluster size %d", pc.GroupSize, n)
	}
	if pc.Quorum < 0 || pc.Quorum > pc.GroupSize {
		return fmt.Errorf("core: prague quorum %d out of range [0, group size %d]", pc.Quorum, pc.GroupSize)
	}
	return nil
}

// pragueStepStride separates per-step RNG streams; any odd constant
// works, a large prime keeps adjacent steps' seeds far apart.
const pragueStepStride = 1_000_003

// PragueGroups returns step's partition of workers 0..n-1 into groups
// of the given size (the remainder, if any, forms one smaller trailing
// group). The result is a pure function of (seed, step, n, size):
// every worker computes the same partition locally, and each group is
// sorted ascending so group renderings — and therefore decision
// traces — are canonical.
func PragueGroups(seed int64, step, n, size int) [][]int {
	rng := rand.New(rand.NewSource(seed + int64(step)*pragueStepStride))
	perm := rng.Perm(n)
	groups := make([][]int, 0, (n+size-1)/size)
	for i := 0; i < n; i += size {
		end := i + size
		if end > n {
			end = n
		}
		g := append([]int(nil), perm[i:end]...)
		sort.Ints(g)
		groups = append(groups, g)
	}
	return groups
}

// PragueGroupOf returns the group containing worker w at step.
func PragueGroupOf(seed int64, step, n, size, w int) []int {
	for _, g := range PragueGroups(seed, step, n, size) {
		if containsInt(g, w) {
			return g
		}
	}
	panic(fmt.Sprintf("core: worker %d not in any prague group (n=%d)", w, n))
}

// PragueLastShared returns the last step in [0, maxIter) whose group
// schedule puts workers a and b in the same group, or -1 if they never
// share one. The live runtime's drain barrier uses it: the final
// protocol message between a pair of Prague workers is the update of
// their last shared step.
func PragueLastShared(seed int64, n, size, maxIter, a, b int) int {
	for step := maxIter - 1; step >= 0; step-- {
		if containsInt(PragueGroupOf(seed, step, n, size, a), b) {
			return step
		}
	}
	return -1
}

// iterPrague is one Prague iteration: compute the step's scheduled
// group locally, send x_k to the live group members, overlap the
// gradient computation with the quorum Recv, average what arrived, and
// apply. Structure mirrors iterParallel (Fig. 2(b)); only the peer set
// and the Recv semantics differ.
func (p *Protocol) iterPrague(k int) {
	t := p.trainer
	x := t.Params()
	pc := p.cfg.Prague
	group := PragueGroupOf(pc.Seed, k, p.cfg.Graph.N(), pc.GroupSize, p.id)
	p.trace.group(group, k)

	// 1. Send x_k to the scheduled group (self-loop local, dead
	// members skipped — p.out is the live membership view).
	snap := tensor.Clone(x)
	p.queue.Enqueue(Update{Params: snap, Iter: k, From: p.id})
	for _, j := range group {
		if j != p.id && containsInt(p.out, j) {
			p.rt.Send(j, Update{Params: snap, Iter: k, From: p.id})
		}
	}

	// 2. Compute gradients on x_k, overlapping the Recv below.
	start := p.rt.Now()
	d := p.rt.Compute(k, p.computeFn)

	// 3+4. Quorum Recv and partial all-reduce.
	reduced := p.pragueRecv(k, group)

	p.rt.EndCompute(start + d)

	// 5. Apply gradients to the group average.
	tensor.Copy(x, reduced)
	t.Apply(p.grads)

	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, p.loss, p.rt.Now())
	}
}

// pragueRecv blocks until the quorum of iteration-k group updates is
// present (the worker's own included), folds in any extras already
// arrived, and returns the group mean. The requirement is re-evaluated
// per pass: a group member's death shrinks the live group, and the
// pragueBlockHook applies pending deaths of members whose tagged-k
// update is provably missing — the same lazy-application rule as Hop's
// reduce, so the applied iteration is deterministic (DESIGN.md §6, §8).
func (p *Protocol) pragueRecv(k int, group []int) []float64 {
	need := func() int {
		live := 0
		for _, j := range group {
			if j == p.id || containsInt(p.in, j) {
				live++
			}
		}
		n := live
		if q := p.cfg.Prague.Quorum; q > 0 && q < n {
			n = q
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	ups := p.queue.dequeueIterOr(k, need, p.pragueBlockHook(k, group))

	// Average one update per member — deduplicated by sender, first
	// arrival wins, so a duplicated delivery can never skew the mean.
	seen := make(map[int]bool, len(ups))
	vecs := make([][]float64, 0, len(ups))
	for _, u := range ups {
		if seen[u.From] {
			continue
		}
		seen[u.From] = true
		vecs = append(vecs, u.Params)
	}

	// Members absent from the reduce — quorum proceeded without them,
	// or they are dead — are recorded as group exclusions.
	for _, j := range group {
		if j != p.id && !seen[j] {
			p.mon.Lock()
			p.stats.GroupExcluded++
			p.mon.Unlock()
			p.trace.groupSkip(j, k)
		}
	}

	out := make([]float64, len(vecs[0]))
	tensor.Mean(out, vecs)
	return out
}

// pragueBlockHook applies pending deaths of scheduled group members
// whose tagged-iter update is missing — and only those: a dead
// member's already-arrived final update must be consumed exactly as if
// the member were alive, or the applied iteration would depend on
// notice timing. Pending deaths of non-members stay pending until a
// shared step actually blocks on them.
func (p *Protocol) pragueBlockHook(iter int, group []int) func() bool {
	if !p.cfg.FaultTolerance {
		return nil
	}
	return func() bool {
		if len(p.pendingDead) == 0 {
			return false
		}
		changed := false
		for _, d := range group {
			if d == p.id || !p.pendingDead[d] {
				continue
			}
			if p.queue.hasIterFromLocked(d, iter) {
				continue
			}
			p.applyDeathLocked(d)
			changed = true
		}
		return changed
	}
}
