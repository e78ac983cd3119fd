package graph

import (
	"fmt"

	"hop/internal/seeded"
)

// Ring returns the bidirectional ring of Figure 11(a): worker i is
// connected to i±1 (mod n).
func Ring(n int) *Graph {
	g := New(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		g.AddBiEdge(i, (i+1)%n)
	}
	return g
}

// RingBased returns the ring-based graph of Figure 11(b): the ring plus
// an edge from every node to its most distant node (i ↔ i+n/2). n must
// be even so "most distant" is unique.
func RingBased(n int) *Graph {
	if n%2 != 0 {
		panic(fmt.Sprintf("graph: RingBased requires even n, got %d", n))
	}
	g := Ring(n)
	g.Name = fmt.Sprintf("ring-based-%d", n)
	for i := 0; i < n/2; i++ {
		g.AddBiEdge(i, i+n/2)
	}
	return g
}

// DoubleRing returns the double-ring graph of Figure 11(c): two
// ring-based graphs of n/2 nodes each, connected node to node
// (worker i in the first copy ↔ worker i+n/2 in the second). n must be
// divisible by 4 so each half is a valid ring-based graph.
func DoubleRing(n int) *Graph {
	if n%4 != 0 {
		panic(fmt.Sprintf("graph: DoubleRing requires n divisible by 4, got %d", n))
	}
	half := n / 2
	g := New(fmt.Sprintf("double-ring-%d", n), n)
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			g.AddBiEdge(base+i, base+(i+1)%half)
		}
		for i := 0; i < half/2; i++ {
			g.AddBiEdge(base+i, base+i+half/2)
		}
	}
	for i := 0; i < half; i++ {
		g.AddBiEdge(i, i+half)
	}
	return g
}

// Complete returns the all-to-all graph (dense communication, as in
// All-Reduce-style decentralized averaging).
func Complete(n int) *Graph {
	g := New(fmt.Sprintf("complete-%d", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddBiEdge(i, j)
		}
	}
	return g
}

// Star returns a hub-and-spoke graph with node 0 as the hub. It mirrors
// the communication pattern of a parameter server and is used in tests
// and ablations, not by the paper's decentralized runs.
func Star(n int) *Graph {
	g := New(fmt.Sprintf("star-%d", n), n)
	for i := 1; i < n; i++ {
		g.AddBiEdge(0, i)
	}
	return g
}

// Chain returns a line graph 0–1–…–n-1. Its diameter is n-1, making it
// the worst case for the Theorem 1 iteration gap; used by tests.
func Chain(n int) *Graph {
	g := New(fmt.Sprintf("chain-%d", n), n)
	for i := 0; i+1 < n; i++ {
		g.AddBiEdge(i, i+1)
	}
	return g
}

// DirectedRing returns the unidirectional ring i→i+1 (mod n). With it,
// length(Path j→i) and length(Path i→j) differ, exercising the
// asymmetric terms of the Table 1 bounds.
func DirectedRing(n int) *Graph {
	g := New(fmt.Sprintf("directed-ring-%d", n), n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Setting1 returns the Figure 21(a) baseline: the ring-based graph on 8
// workers, placed unevenly over 3 machines (4/2/2) with no regard for
// the placement.
func Setting1() *Graph {
	g := RingBased(8)
	g.Name = "fig21-setting1"
	g.Machine = []int{0, 0, 0, 0, 1, 1, 2, 2}
	return g
}

// Setting2 returns the first placement-aware graph of Figure 21(b):
// all-reduce (complete) subgraph within each machine, and a ring over
// machines realized by one edge between consecutive machines.
func Setting2() *Graph {
	g := New("fig21-setting2", 8)
	g.Machine = []int{0, 0, 0, 0, 1, 1, 2, 2}
	completeWithin(g)
	// Machine ring 0→1→2→0 through single representatives.
	g.AddBiEdge(0, 4) // machine 0 ↔ machine 1
	g.AddBiEdge(5, 6) // machine 1 ↔ machine 2
	g.AddBiEdge(7, 1) // machine 2 ↔ machine 0
	return g
}

// Setting3 returns the second placement-aware graph of Figure 21(c):
// the same intra-machine all-reduce subgraphs with a different choice
// of inter-machine ring edges (two parallel edges between consecutive
// machines for the large machine), yielding a near-identical spectral
// gap to Setting2 but a different edge load.
func Setting3() *Graph {
	g := New("fig21-setting3", 8)
	g.Machine = []int{0, 0, 0, 0, 1, 1, 2, 2}
	completeWithin(g)
	g.AddBiEdge(0, 4)
	g.AddBiEdge(4, 6)
	g.AddBiEdge(6, 2)
	return g
}

func completeWithin(g *Graph) {
	n := g.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.Machine[i] == g.Machine[j] {
				g.AddBiEdge(i, j)
			}
		}
	}
}

// EvenPlacement assigns workers round-robin-block style to m machines:
// workers [k*n/m, (k+1)*n/m) go to machine k. This matches the paper's
// main setup of 16 workers over 4 machines.
func EvenPlacement(g *Graph, m int) {
	n := g.N()
	g.Machine = make([]int, n)
	for i := 0; i < n; i++ {
		g.Machine[i] = i * m / n
	}
}

// groupStart returns the first worker of group k under EvenPlacement's
// contiguous-block formula (worker i → machine i*m/n): group k is
// [ceil(k*n/m), ceil((k+1)*n/m)).
func groupStart(n, m, k int) int { return (k*n + m - 1) / m }

// hierGroups builds the machine-aligned group structure the
// hierarchical topologies share: n workers in m contiguous groups, one
// group per machine, placement matching EvenPlacement exactly so the
// fabric prices intra-group edges as in-machine links.
func hierGroups(name string, n, m int) *Graph {
	if m < 1 || m > n {
		panic(fmt.Sprintf("graph: %s needs 1 <= machines <= workers, got %d machines for %d workers", name, m, n))
	}
	g := New(fmt.Sprintf("%s-%d-g%d", name, n, m), n)
	EvenPlacement(g, m)
	return g
}

// interGroupRing closes a ring over the m groups with one bidirectional
// edge per consecutive pair, rotating the representative inside each
// group deterministically (pair index mod group size) so the inter-group
// load does not concentrate on one worker per group — the HetPipe-style
// composition: whatever the intra-group graph is, the groups gossip
// through a sparse decentralized ring.
func interGroupRing(g *Graph, m int) {
	if m < 2 {
		return
	}
	n := g.N()
	for k := 0; k < m; k++ {
		next := (k + 1) % m
		aStart, aEnd := groupStart(n, m, k), groupStart(n, m, k+1)
		bStart, bEnd := groupStart(n, m, next), groupStart(n, m, next+1)
		a := aStart + k%(aEnd-aStart)
		b := bStart + k%(bEnd-bStart)
		if a != b {
			g.AddBiEdge(a, b)
		}
	}
}

// ringWithin connects the workers [start, end) in a bidirectional ring
// (a single edge for two workers, nothing for fewer).
func ringWithin(g *Graph, start, end int) {
	size := end - start
	if size < 2 {
		return
	}
	if size == 2 {
		g.AddBiEdge(start, start+1)
		return
	}
	for i := 0; i < size; i++ {
		g.AddBiEdge(start+i, start+(i+1)%size)
	}
}

// HierRing is the sparse hierarchical topology: workers grouped one
// group per machine (EvenPlacement blocks), a bidirectional ring within
// each group, and a ring over the groups through rotating
// representatives. Per-worker degree is O(1) regardless of n, which
// makes it the cheapest scalable kind for large clusters.
func HierRing(n, m int) *Graph {
	g := hierGroups("hier-ring", n, m)
	for k := 0; k < m; k++ {
		ringWithin(g, groupStart(n, m, k), groupStart(n, m, k+1))
	}
	interGroupRing(g, m)
	return g
}

// HierAllReduce is the HetPipe composition at scale: a full all-reduce
// (complete) subgraph within each machine-aligned group — the fast
// intra-machine collective — under the same inter-group ring of
// rotating representatives, generalizing Figure 21's Setting2 from 8
// workers on 3 machines to any (n, m). Per-worker degree is
// O(n/m): the group size, not the cluster size.
func HierAllReduce(n, m int) *Graph {
	g := hierGroups("hier-allreduce", n, m)
	for k := 0; k < m; k++ {
		start, end := groupStart(n, m, k), groupStart(n, m, k+1)
		for i := start; i < end; i++ {
			for j := i + 1; j < end; j++ {
				g.AddBiEdge(i, j)
			}
		}
	}
	interGroupRing(g, m)
	return g
}

// Expander returns a seeded constant-degree expander-style graph: the
// bidirectional ring (guaranteeing strong connectivity) plus
// (degree-2)/2 layers of random chords, each a seeded permutation
// matching i ↔ perm[i]. Degree must be even and >= 4; the undirected
// degree of every worker is at most degree (ring contributes 2, each
// chord layer at most 2). The construction is a pure function of
// (n, degree, seed): repeated builds are byte-identical, which is the
// property that lets scenario seed layering reproduce a run's graph
// from its spec alone. Low diameter at constant degree is what makes
// it the large-n alternative to the ring's n/2 diameter.
func Expander(n, degree int, seed int64) *Graph {
	if n < 4 {
		panic(fmt.Sprintf("graph: Expander requires n >= 4, got %d", n))
	}
	if degree < 4 || degree%2 != 0 {
		panic(fmt.Sprintf("graph: Expander degree must be even and >= 4, got %d", degree))
	}
	g := New(fmt.Sprintf("expander-%d-d%d-s%d", n, degree, seed), n)
	for i := 0; i < n; i++ {
		g.AddBiEdge(i, (i+1)%n)
	}
	layers := (degree - 2) / 2
	for l := 0; l < layers; l++ {
		rng := seeded.New(seed + int64(l)*15485863 + 3)
		for i, j := range rng.Perm(n) {
			if i != j {
				g.AddBiEdge(i, j)
			}
		}
	}
	return g
}
