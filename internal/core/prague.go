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
// A Prague step is Hop's parallel computation graph (Protocol.iterate)
// with the step's group as its peer set: the send, the reduce's quorum
// and its death rule are narrowed to the group, and the reduce
// deduplicates by sender; the simulator and the live TCP runtime run
// it verbatim. The graph is a placement/cost substrate only: groups
// span all n workers regardless of topology, which is why
// Config.ProtocolPeers is every other worker under ModePrague (and why
// elastic membership, which operates on those views, works for Prague
// without modification).

import (
	"fmt"
	"math/rand"
	"sort"

	"hop/internal/seeded"
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
	perm := praguePerm(rand.New(new(seeded.Source)), seed, step, n)
	groups := make([][]int, 0, (n+size-1)/size)
	for i := 0; i < n; i += size {
		groups = append(groups, sortedBlock(perm, i, size))
	}
	return groups
}

// PragueGroupOf returns the group containing worker w at step: the
// PragueGroups group that holds w.
func PragueGroupOf(seed int64, step, n, size, w int) []int {
	return pragueGroupOf(rand.New(new(seeded.Source)), seed, step, n, size, w)
}

// pragueGroupOf is PragueGroupOf drawing from rng, which it reseeds in
// place: it finds w in the step's permutation and sorts only w's block.
func pragueGroupOf(rng *rand.Rand, seed int64, step, n, size, w int) []int {
	perm := praguePerm(rng, seed, step, n)
	for i, v := range perm {
		if v == w {
			return sortedBlock(perm, i-i%size, size)
		}
	}
	panic(fmt.Sprintf("core: worker %d not in any prague group (n=%d)", w, n))
}

// praguePerm reseeds rng for step and draws the step's permutation.
func praguePerm(rng *rand.Rand, seed int64, step, n int) []int {
	rng.Seed(seed + int64(step)*pragueStepStride)
	return rng.Perm(n)
}

// sortedBlock returns a sorted copy of the group of perm starting at i.
func sortedBlock(perm []int, i, size int) []int {
	g := append([]int(nil), perm[i:min(i+size, len(perm))]...)
	sort.Ints(g)
	return g
}

// groupQuorum is the reduce requirement of a Prague step: the live
// members of p.group (the worker itself included, so at least one),
// capped at Quorum. It is re-evaluated per pass — a member's death
// shrinks the live group mid-wait.
func (p *Protocol) groupQuorum() int {
	live := 0
	for _, j := range p.group {
		if j == p.id || containsInt(p.in, j) {
			live++
		}
	}
	if q := p.cfg.Prague.Quorum; q > 0 {
		live = min(live, q)
	}
	return live
}

// noteGroupExclusions records every member absent from the reduce ups
// (quorum proceeded without it, or it is dead) as a group exclusion.
func (p *Protocol) noteGroupExclusions(ups []Update, k int) {
	for _, j := range p.group {
		if j != p.id && !hasSender(ups, j) {
			p.mon.Lock()
			p.stats.GroupExcluded++
			p.mon.Unlock()
			p.note(TraceEvent{Kind: TraceGroupSkip, Iter: k, From: j})
		}
	}
}

func hasSender(ups []Update, from int) bool {
	for _, u := range ups {
		if u.From == from {
			return true
		}
	}
	return false
}
