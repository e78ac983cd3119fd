package core

// This file tracks the iteration gap — the paper's central
// characterization of decentralized training (§3.3) — and computes the
// theoretical upper bounds of Table 1 so runs can assert against them.

import (
	"math"
	"slices"

	"hop/internal/graph"
)

// GapTracker records every worker's iteration and the maximum observed
// value of Iter(i) − Iter(j) for every graph-adjacent ordered pair —
// the pairs every protocol decision concerns, and the pairs the Table
// 1 bounds compose along (TestBoundsComposeAlongPaths) — plus the
// overall maximum of max(Iter) − min(Iter). It is the runtime witness
// for Theorems 1 and 2 and Table 1. An Advance costs O(degree)
// amortized, which keeps the per-step cost of an n=1000+ simulation
// independent of n.
type GapTracker struct {
	mon   Monitor
	iters []int
	// nbrs[w] is w's sorted neighbor set (in ∪ out) and nbrMax[w][k]
	// the observed max of Iter(w) − Iter(nbrs[w][k]).
	nbrs   [][]int
	nbrMax [][]int
	// Incremental overall maximum: minVal/minCount track the
	// cluster-wide minimum iteration, overall the largest iter−min
	// ever observed. Rescanning for a new minimum costs O(n) but only
	// happens when the last worker leaves the old one — amortized O(1)
	// per Advance.
	minVal, minCount, overall int
}

// NewGapTrackerFor creates the tracker for g's workers, all at
// iteration 0.
func NewGapTrackerFor(mon Monitor, g *graph.Graph) *GapTracker {
	n := g.N()
	t := &GapTracker{mon: mon, iters: make([]int, n), minCount: n}
	t.nbrs = make([][]int, n)
	t.nbrMax = make([][]int, n)
	for w := 0; w < n; w++ {
		t.nbrs[w] = g.Neighbors(w)
		t.nbrMax[w] = make([]int, len(t.nbrs[w]))
	}
	return t
}

// Advance records that worker w is now executing iteration iter and
// refreshes the max-gap bookkeeping.
func (t *GapTracker) Advance(w, iter int) {
	t.mon.Lock()
	defer t.mon.Unlock()
	old := t.iters[w]
	t.iters[w] = iter
	for k, j := range t.nbrs[w] {
		if g := iter - t.iters[j]; g > t.nbrMax[w][k] {
			t.nbrMax[w][k] = g
		}
	}
	// Maintain the cluster minimum and the overall maximum. The gap
	// max(Iter)−min(Iter) can only grow when some worker advances, and
	// then only to iter−min — checking that candidate on every Advance
	// observes every increase.
	if old == t.minVal {
		t.minCount--
	}
	if iter < t.minVal {
		t.minVal, t.minCount = iter, 1
	} else if iter == t.minVal {
		t.minCount++
	} else if t.minCount == 0 {
		min := t.iters[0]
		count := 1
		for _, it := range t.iters[1:] {
			switch {
			case it < min:
				min, count = it, 1
			case it == min:
				count++
			}
		}
		t.minVal, t.minCount = min, count
	}
	if g := iter - t.minVal; g > t.overall {
		t.overall = g
	}
}

// Iter returns worker w's current iteration.
func (t *GapTracker) Iter(w int) int {
	t.mon.Lock()
	defer t.mon.Unlock()
	return t.iters[w]
}

// MaxGap returns the maximum observed Iter(i) − Iter(j) for
// graph-adjacent i and j, and 0 for any other pair.
func (t *GapTracker) MaxGap(i, j int) int {
	t.mon.Lock()
	defer t.mon.Unlock()
	if k, ok := slices.BinarySearch(t.nbrs[i], j); ok {
		return t.nbrMax[i][k]
	}
	return 0
}

// MaxGapOverall returns the largest observed max(Iter)−min(Iter) over
// the run: the largest iter−min any Advance produced.
func (t *GapTracker) MaxGapOverall() int {
	t.mon.Lock()
	defer t.mon.Unlock()
	return t.overall
}

// Snapshot returns a copy of the current iterations.
func (t *GapTracker) Snapshot() []int {
	t.mon.Lock()
	defer t.mon.Unlock()
	return append([]int(nil), t.iters...)
}

// Unbounded marks an infinite Table 1 bound.
const Unbounded = math.MaxInt32

// Bounds computes the Table 1 iteration-gap upper bounds for a
// protocol configuration on a topology. It keeps no distance matrix:
// each bound measures the path lengths it needs when asked — 1 for an
// edge, otherwise a BFS that stops at its target — so building one is
// O(1) and a query about adjacent workers O(degree). Bounds holds no
// mutable state and is safe for concurrent use as long as nobody adds
// edges to the graph.
type Bounds struct {
	cfg Config
}

// NewBounds derives the Table 1 bound calculator for cfg's graph and
// synchronization settings.
func NewBounds(cfg Config) *Bounds {
	return &Bounds{cfg: cfg}
}

// dist returns length(Path s→t) following directed edges: 0 for s==t,
// 1 for an edge, -1 if t is unreachable from s.
func (b *Bounds) dist(s, t int) int {
	g := b.cfg.Graph
	switch {
	case s == t:
		return 0
	case g.HasEdge(s, t):
		return 1
	}
	d := make([]int, g.N())
	for i := range d {
		d[i] = -1
	}
	d[s] = 0
	queue := []int{s}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Out(v) {
			if d[w] != -1 {
				continue
			}
			if w == t {
				return d[v] + 1
			}
			d[w] = d[v] + 1
			queue = append(queue, w)
		}
	}
	return -1
}

// base returns b0 of Table 1: the bound on Iter(i)−Iter(j) for
// adjacent j ∈ Nin(i) that the setting itself provides, before token
// queues are considered. Unbounded for backup workers.
func (b *Bounds) base() int {
	switch {
	case b.cfg.Backup > 0:
		return Unbounded
	case b.cfg.Staleness > 0:
		return b.cfg.Staleness + 1
	default:
		return 1
	}
}

// Gap returns the Table 1 upper bound on Iter(i) − Iter(j), or
// Unbounded.
func (b *Bounds) Gap(i, j int) int {
	if i == j {
		return 0
	}
	dJI := b.dist(j, i) // length(Path j→i)
	if b.cfg.Mode == ModeNotifyAck {
		return minBound(dJI, mulBound(2, b.dist(i, j)))
	}
	forward := mulBound(b.base(), dJI)
	if b.cfg.MaxIG <= 0 {
		return forward
	}
	return minBound(forward, mulBound(b.cfg.MaxIG, b.dist(i, j)))
}

// TokenCapacity returns the Theorem 2 bound on the number of tokens in
// TokenQ(i→j): max_ig·(length(Path i→j)+1). Only meaningful when token
// queues are enabled.
func (b *Bounds) TokenCapacity(i, j int) int {
	if b.cfg.MaxIG <= 0 {
		return Unbounded
	}
	return b.cfg.MaxIG * (b.dist(i, j) + 1)
}

// UpdateQueueCapacity returns the §4.2 bound on UpdateQ(i) occupancy,
// (1+max_ig)·|Nin(i)| counting the self-loop, when token queues are
// enabled: every in-neighbor can be at most max_ig iterations ahead of
// the receiver, so at most 1+max_ig of its updates are unconsumed.
func (b *Bounds) UpdateQueueCapacity(i int, g *graph.Graph) int {
	if b.cfg.MaxIG <= 0 {
		return Unbounded
	}
	return (1 + b.cfg.MaxIG) * g.InDegreeWithSelf(i)
}

func minBound(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func mulBound(k, d int) int {
	if k >= Unbounded || d >= Unbounded {
		return Unbounded
	}
	v := k * d
	if v >= Unbounded {
		return Unbounded
	}
	return v
}
