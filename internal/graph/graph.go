// Package graph models the communication topology of decentralized
// training: a directed graph over workers with a weighted adjacency
// matrix, as defined in §3.1 of the Hop paper.
//
// Every worker has an implicit self-loop (its own update is always
// available), matching the paper's convention. Neighbor lists returned
// by In and Out exclude the self-loop; degree accessors that include it
// are provided separately because the reduce weight in Eq. 1 is
// 1/|Nin(j)| counting self.
//
// The package provides the topologies used in the paper's evaluation
// (Figures 11 and 21), the diameter and strong-connectivity checks a
// cluster is validated and sized by, doubly-stochastic weight
// constructions, and the spectral gap ‖λ1‖−‖λ2‖ computed with a
// from-scratch symmetric Jacobi eigensolver (with a power-iteration
// fallback for asymmetric weight matrices).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is a directed communication topology over N workers.
// Edge (i→j) means worker i sends updates to worker j.
type Graph struct {
	// Name identifies the topology in logs and experiment output.
	Name string

	n   int
	out [][]int // out-neighbors, self excluded, sorted
	in  [][]int // in-neighbors, self excluded, sorted

	// Machine[i] is the physical machine hosting worker i, used by the
	// network fabric to price intra- vs inter-machine links. nil means
	// a uniform default placement.
	Machine []int

	// connected memoizes StronglyConnected: every worker's protocol is
	// validated against the graph, so without the memo an n-worker
	// cluster pays n connectivity checks before the first simulated
	// event fires. AddEdge resets it. The first call writes the memo, so
	// it must not race another.
	connected, connKnown bool
}

// New returns an empty graph (no edges besides implicit self-loops)
// over n workers.
func New(name string, n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid worker count %d", n))
	}
	return &Graph{
		Name: name,
		n:    n,
		out:  make([][]int, n),
		in:   make([][]int, n),
	}
}

// N returns the number of workers.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the directed edge i→j. Self-loops are implicit and
// rejected; duplicate edges are ignored.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		panic("graph: explicit self-loop (self-loops are implicit)")
	}
	g.checkNode(i)
	g.checkNode(j)
	if containsInt(g.out[i], j) {
		return
	}
	g.out[i] = insertSorted(g.out[i], j)
	g.in[j] = insertSorted(g.in[j], i)
	g.connKnown = false
}

// AddBiEdge inserts edges in both directions between i and j.
func (g *Graph) AddBiEdge(i, j int) {
	g.AddEdge(i, j)
	g.AddEdge(j, i)
}

func (g *Graph) checkNode(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, g.n))
	}
}

// HasEdge reports whether the directed edge i→j exists (true for i==j:
// self-loops are implicit).
func (g *Graph) HasEdge(i, j int) bool {
	if i == j {
		return true
	}
	return containsInt(g.out[i], j)
}

// Out returns worker i's out-neighbors, excluding itself. The returned
// slice must not be modified.
func (g *Graph) Out(i int) []int { return g.out[i] }

// In returns worker i's in-neighbors, excluding itself. The returned
// slice must not be modified.
func (g *Graph) In(i int) []int { return g.in[i] }

// Neighbors returns worker i's neighbors in either direction, In(i) ∪
// Out(i), sorted, in a fresh slice.
func (g *Graph) Neighbors(i int) []int {
	nb := append([]int(nil), g.in[i]...)
	for _, j := range g.out[i] {
		if !containsInt(nb, j) {
			nb = insertSorted(nb, j)
		}
	}
	return nb
}

// InDegreeWithSelf returns |Nin(i)| counting the implicit self-loop;
// this is the denominator of the uniform reduce weight in Eq. 1.
func (g *Graph) InDegreeWithSelf(i int) int { return len(g.in[i]) + 1 }

// MachineOf returns worker i's machine, or 0 if no placement is set.
func (g *Graph) MachineOf(i int) int {
	if g.Machine == nil {
		return 0
	}
	return g.Machine[i]
}

// NumMachines returns the number of distinct machines in the placement
// (1 if no placement is set).
func (g *Graph) NumMachines() int {
	if g.Machine == nil {
		return 1
	}
	max := 0
	for _, m := range g.Machine {
		if m > max {
			max = m
		}
	}
	return max + 1
}

// StronglyConnected reports whether every worker can reach every other
// following directed edges. Decentralized training requires it
// (otherwise some updates never influence some workers). The verdict
// is computed once, O(n+E), and kept until the next AddEdge.
func (g *Graph) StronglyConnected() bool {
	if !g.connKnown {
		g.connected = g.n > 0 && g.reachesAll(g.out) && g.reachesAll(g.in)
		g.connKnown = true
	}
	return g.connected
}

// reachesAll reports whether a DFS over adj from worker 0 visits every
// worker.
func (g *Graph) reachesAll(adj [][]int) bool {
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// Diameter returns the longest shortest-path length over all ordered
// pairs, or -1 if the graph is not strongly connected. It runs a BFS
// from every source; a source's BFS ends once it has reached every
// worker, and it resets only the distances it set, so each source
// costs O(edges scanned), not O(n).
func (g *Graph) Diameter() int {
	if !g.StronglyConnected() {
		return -1
	}
	d := make([]int, g.n)
	for i := range d {
		d[i] = -1
	}
	queue := make([]int, 0, g.n)
	deepest := 0
	for s := 0; s < g.n; s++ {
		d[s] = 0
		queue = append(queue[:0], s)
	bfs:
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.out[v] {
				if d[w] != -1 {
					continue
				}
				d[w] = d[v] + 1
				deepest = max(deepest, d[w])
				queue = append(queue, w)
				if len(queue) == g.n {
					break bfs
				}
			}
		}
		for _, v := range queue {
			d[v] = -1
		}
	}
	return deepest
}

// IsBipartite reports whether the graph, viewed as undirected (ignoring
// self-loops), is 2-colorable. AD-PSGD's deadlock-free variant requires
// a bipartite communication graph (§5).
func (g *Graph) IsBipartite() bool {
	color := make([]int, g.n) // 0 unseen, 1/2 colors
	for s := 0; s < g.n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range append(append([]int{}, g.out[v]...), g.in[v]...) {
				if color[w] == 0 {
					color[w] = 3 - color[v]
					queue = append(queue, w)
				} else if color[w] == color[v] {
					return false
				}
			}
		}
	}
	return true
}

// Bipartition returns a 2-coloring (values 0/1) of the undirected view,
// or an error if the graph is not bipartite.
func (g *Graph) Bipartition() ([]int, error) {
	if !g.IsBipartite() {
		return nil, fmt.Errorf("graph %q is not bipartite", g.Name)
	}
	color := make([]int, g.n)
	for i := range color {
		color[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range append(append([]int{}, g.out[v]...), g.in[v]...) {
				if color[w] == -1 {
					color[w] = 1 - color[v]
					queue = append(queue, w)
				}
			}
		}
	}
	return color, nil
}

// Validate checks the invariants decentralized training requires:
// strong connectivity and at least one worker. It returns a descriptive
// error rather than panicking so callers can surface configuration
// mistakes.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return fmt.Errorf("graph %q has no workers", g.Name)
	}
	if !g.StronglyConnected() {
		return fmt.Errorf("graph %q is not strongly connected", g.Name)
	}
	if g.Machine != nil && len(g.Machine) != g.n {
		return fmt.Errorf("graph %q: placement has %d entries for %d workers", g.Name, len(g.Machine), g.n)
	}
	return nil
}

func (g *Graph) String() string {
	edges := 0
	for i := range g.out {
		edges += len(g.out[i])
	}
	return fmt.Sprintf("%s(n=%d, edges=%d, machines=%d)", g.Name, g.n, edges, g.NumMachines())
}

func containsInt(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// --- Weight matrices -------------------------------------------------

// UniformWeights returns the Eq. 1 weight matrix: W[i][j] = 1/|Nin(j)|
// for i ∈ Nin(j) ∪ {j}, 0 otherwise. W is column-stochastic always and
// doubly stochastic exactly when the graph is in-regular.
func (g *Graph) UniformWeights() [][]float64 {
	w := zeros(g.n)
	for j := 0; j < g.n; j++ {
		p := 1.0 / float64(g.InDegreeWithSelf(j))
		w[j][j] = p
		for _, i := range g.in[j] {
			w[i][j] = p
		}
	}
	return w
}

// MetropolisWeights returns the Metropolis–Hastings weight matrix for
// the undirected view of the graph: for an edge {i,j},
// W[i][j] = 1/(1+max(deg(i),deg(j))) and the self weight absorbs the
// remainder. The result is symmetric and doubly stochastic for any
// connected undirected graph, regular or not.
func (g *Graph) MetropolisWeights() [][]float64 {
	deg := make([]int, g.n)
	und := make([][]bool, g.n)
	for i := range und {
		und[i] = make([]bool, g.n)
	}
	for i := 0; i < g.n; i++ {
		for _, j := range g.out[i] {
			und[i][j] = true
			und[j][i] = true
		}
	}
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if und[i][j] {
				deg[i]++
			}
		}
	}
	w := zeros(g.n)
	for i := 0; i < g.n; i++ {
		sum := 0.0
		for j := 0; j < g.n; j++ {
			if und[i][j] {
				d := deg[i]
				if deg[j] > d {
					d = deg[j]
				}
				w[i][j] = 1.0 / float64(1+d)
				sum += w[i][j]
			}
		}
		w[i][i] = 1 - sum
	}
	return w
}

// IsDoublyStochastic reports whether every row sum and column sum of w
// equals one within tol.
func IsDoublyStochastic(w [][]float64, tol float64) bool {
	n := len(w)
	for i := 0; i < n; i++ {
		rs, cs := 0.0, 0.0
		for j := 0; j < n; j++ {
			rs += w[i][j]
			cs += w[j][i]
		}
		if math.Abs(rs-1) > tol || math.Abs(cs-1) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether w equals its transpose within tol.
func IsSymmetric(w [][]float64, tol float64) bool {
	n := len(w)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(w[i][j]-w[j][i]) > tol {
				return false
			}
		}
	}
	return true
}

func zeros(n int) [][]float64 {
	w := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range w {
		w[i], buf = buf[:n], buf[n:]
	}
	return w
}
