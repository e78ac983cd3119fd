package core

// This file tracks the iteration gap — the paper's central
// characterization of decentralized training (§3.3) — and computes the
// theoretical upper bounds of Table 1 so runs can assert against them.

import (
	"math"

	"hop/internal/graph"
)

// GapTracker records every worker's iteration and the maximum observed
// value of Iter(i) − Iter(j). It is the runtime witness for Theorems 1
// and 2 and Table 1.
//
// Two representations share the API. The dense form keeps the full
// n×n max-gap matrix — exact for every ordered pair, O(n) per Advance
// — and is what small clusters (and NewGapTracker callers) get; the
// Theorem 1 and Table 1 assertions check non-adjacent pairs too. Above
// gapDenseLimit workers, NewGapTrackerFor switches to the sparse form:
// per-pair maxima are kept for graph-adjacent ordered pairs only
// (the pairs every protocol decision concerns), and the overall
// maximum is maintained incrementally from the cluster-wide minimum
// iteration — O(degree) amortized per Advance, which is what keeps the
// per-step cost of an n=1000+ simulation independent of n.
type GapTracker struct {
	mon    Monitor
	iters  []int
	maxGap [][]int // dense: full ordered-pair maxima; nil in sparse form

	// Sparse form: nbrs[w] is w's sorted neighbor set (in ∪ out) and
	// nbrMax[w][k] the observed max of Iter(w) − Iter(nbrs[w][k]).
	nbrs   [][]int
	nbrMax [][]int
	// Incremental overall maximum: minVal/minCount track the
	// cluster-wide minimum iteration, overall the largest iter−min
	// ever observed. Rescanning for a new minimum costs O(n) but only
	// happens when the last worker leaves the old one — amortized O(1)
	// per Advance.
	minVal, minCount, overall int
}

// gapDenseLimit is the largest cluster the simulator tracks with the
// dense all-pairs matrix. Sparse is never slower (BenchmarkGapAdvance,
// DESIGN.md §10.2), so dense is kept for what it answers — every
// ordered pair — up to where its 1.2 ns·n per Advance stops being
// cheap: ~155 ns at n=128, 4% of an engine step.
const gapDenseLimit = 128

// NewGapTracker creates a dense tracker for n workers, all at
// iteration 0: exact max gaps for every ordered pair.
func NewGapTracker(mon Monitor, n int) *GapTracker {
	t := &GapTracker{mon: mon, iters: make([]int, n), maxGap: make([][]int, n), minCount: n}
	for i := range t.maxGap {
		t.maxGap[i] = make([]int, n)
	}
	return t
}

// NewGapTrackerFor creates the tracker the simulator uses for g: dense up
// to gapDenseLimit workers, sparse (adjacent pairs + exact overall
// maximum) beyond it.
func NewGapTrackerFor(mon Monitor, g *graph.Graph) *GapTracker {
	if g.N() <= gapDenseLimit {
		return NewGapTracker(mon, g.N())
	}
	return newSparseGapTracker(mon, g)
}

// newSparseGapTracker creates the adjacent-pairs form for g.
func newSparseGapTracker(mon Monitor, g *graph.Graph) *GapTracker {
	n := g.N()
	t := &GapTracker{mon: mon, iters: make([]int, n), minCount: n}
	t.nbrs = make([][]int, n)
	t.nbrMax = make([][]int, n)
	for w := 0; w < n; w++ {
		in, out := g.In(w), g.Out(w)
		nb := make([]int, 0, len(in)+len(out))
		nb = append(append(nb, in...), out...)
		nb = sortedUnique(nb)
		t.nbrs[w] = nb
		t.nbrMax[w] = make([]int, len(nb))
	}
	return t
}

// sortedUnique sorts xs in place and drops duplicates.
func sortedUnique(xs []int) []int {
	for i := 1; i < len(xs); i++ { // insertion sort: degree-sized inputs
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Dense reports whether the tracker keeps exact maxima for every
// ordered pair (the sparse form tracks graph-adjacent pairs only).
func (t *GapTracker) Dense() bool { return t.maxGap != nil }

// Advance records that worker w is now executing iteration iter and
// refreshes the max-gap bookkeeping.
func (t *GapTracker) Advance(w, iter int) {
	t.mon.Lock()
	defer t.mon.Unlock()
	old := t.iters[w]
	t.iters[w] = iter
	if t.maxGap != nil {
		for j := range t.iters {
			if j == w {
				continue
			}
			if g := iter - t.iters[j]; g > t.maxGap[w][j] {
				t.maxGap[w][j] = g
			}
		}
		return
	}
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

// MaxGap returns the maximum observed Iter(i) − Iter(j). A dense
// tracker answers for every ordered pair; a sparse one tracks
// graph-adjacent pairs (the pairs the Table 1 adjacency bounds
// concern) and reports 0 for the rest.
func (t *GapTracker) MaxGap(i, j int) int {
	t.mon.Lock()
	defer t.mon.Unlock()
	if t.maxGap != nil {
		return t.maxGap[i][j]
	}
	nb := t.nbrs[i]
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nb) && nb[lo] == j {
		return t.nbrMax[i][lo]
	}
	return 0
}

// MaxGapOverall returns the largest observed max(Iter)−min(Iter) over
// the run — for the dense form the matrix maximum, for the sparse form
// the incrementally-maintained value (identical by construction: both
// equal the largest iter−min any Advance ever produced).
func (t *GapTracker) MaxGapOverall() int {
	t.mon.Lock()
	defer t.mon.Unlock()
	if t.maxGap == nil {
		return t.overall
	}
	max := 0
	for i := range t.maxGap {
		for _, g := range t.maxGap[i] {
			if g > max {
				max = g
			}
		}
	}
	return max
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
	case b.cfg.Staleness >= 0:
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
