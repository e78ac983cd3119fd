package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRingStructure(t *testing.T) {
	g := Ring(6)
	if g.N() != 6 {
		t.Fatalf("N = %d", g.N())
	}
	for i := 0; i < 6; i++ {
		if len(g.Out(i)) != 2 || len(g.In(i)) != 2 {
			t.Errorf("node %d degree out=%d in=%d, want 2/2", i, len(g.Out(i)), len(g.In(i)))
		}
		if g.InDegreeWithSelf(i) != 3 {
			t.Errorf("node %d InDegreeWithSelf=%d, want 3", i, g.InDegreeWithSelf(i))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(0, 5) {
		t.Error("missing ring edges")
	}
	if g.HasEdge(0, 3) {
		t.Error("unexpected chord in plain ring")
	}
	if !g.HasEdge(2, 2) {
		t.Error("self loop should be implicit")
	}
}

func TestRingBasedAddsChords(t *testing.T) {
	g := RingBased(8)
	for i := 0; i < 8; i++ {
		if !g.HasEdge(i, (i+4)%8) {
			t.Errorf("missing chord %d->%d", i, (i+4)%8)
		}
		if g.InDegreeWithSelf(i) != 4 {
			t.Errorf("node %d InDegreeWithSelf=%d, want 4", i, g.InDegreeWithSelf(i))
		}
	}
}

func TestDoubleRingStructure(t *testing.T) {
	g := DoubleRing(16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each node: 2 ring + 1 chord + 1 cross = 4 neighbors.
	for i := 0; i < 16; i++ {
		if len(g.In(i)) != 4 {
			t.Errorf("node %d has %d in-neighbors, want 4", i, len(g.In(i)))
		}
	}
	if !g.HasEdge(0, 8) || !g.HasEdge(3, 11) {
		t.Error("missing cross edges")
	}
}

func TestDuplicateEdgesIgnored(t *testing.T) {
	g := New("dup", 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if len(g.Out(0)) != 1 {
		t.Errorf("duplicate edge stored: %v", g.Out(0))
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on explicit self-loop")
		}
	}()
	New("x", 2).AddEdge(1, 1)
}

// allPairs is the test oracle for path lengths: a BFS from every
// source over out-edges, dist[s][t] = length(Path s→t), -1 when t is
// unreachable from s.
func allPairs(g *Graph) [][]int {
	dist := make([][]int, g.N())
	for s := range dist {
		d := make([]int, g.N())
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for _, w := range g.Out(queue[0]) {
				if d[w] == -1 {
					d[w] = d[queue[0]] + 1
					queue = append(queue, w)
				}
			}
		}
		dist[s] = d
	}
	return dist
}

// oracleDiameter is the largest oracle distance, or -1 if some pair is
// unreachable.
func oracleDiameter(g *Graph) int {
	diam := 0
	for _, row := range allPairs(g) {
		for _, d := range row {
			if d == -1 {
				return -1
			}
			diam = max(diam, d)
		}
	}
	return diam
}

func TestShortestPathsRing(t *testing.T) {
	g := Ring(8)
	d := allPairs(g)
	if d[0][4] != 4 || d[0][1] != 1 || d[0][7] != 1 || d[0][0] != 0 {
		t.Errorf("ring distances wrong: %v", d[0])
	}
	if g.Diameter() != 4 {
		t.Errorf("diameter = %d, want 4", g.Diameter())
	}
}

func TestShortestPathsDirectedRing(t *testing.T) {
	g := DirectedRing(5)
	d := allPairs(g)
	if d[0][1] != 1 || d[1][0] != 4 {
		t.Errorf("directed ring distances wrong: d01=%d d10=%d", d[0][1], d[1][0])
	}
	if !g.StronglyConnected() {
		t.Error("directed ring should be strongly connected")
	}
}

func TestDisconnectedGraphDetected(t *testing.T) {
	g := New("disc", 4)
	g.AddBiEdge(0, 1)
	g.AddBiEdge(2, 3)
	if g.StronglyConnected() {
		t.Error("disconnected graph reported connected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate should fail")
	}
	d := allPairs(g)
	if d[0][2] != -1 {
		t.Errorf("unreachable distance = %d, want -1", d[0][2])
	}
	if g.Diameter() != -1 {
		t.Errorf("diameter = %d, want -1", g.Diameter())
	}
}

func TestBipartite(t *testing.T) {
	if !Ring(8).IsBipartite() {
		t.Error("even ring should be bipartite")
	}
	if Ring(7).IsBipartite() {
		t.Error("odd ring should not be bipartite")
	}
	if Complete(3).IsBipartite() {
		t.Error("K3 should not be bipartite")
	}
	part, err := Ring(6).Bipartition()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if part[i] == part[(i+1)%6] {
			t.Errorf("adjacent nodes %d,%d share color", i, (i+1)%6)
		}
	}
	if _, err := Ring(7).Bipartition(); err == nil {
		t.Error("Bipartition of odd ring should fail")
	}
}

func TestUniformWeightsColumnStochastic(t *testing.T) {
	for _, g := range []*Graph{Ring(8), RingBased(8), DoubleRing(8), Complete(5), Star(6), Setting2()} {
		w := g.UniformWeights()
		for j := 0; j < g.N(); j++ {
			cs := 0.0
			for i := 0; i < g.N(); i++ {
				cs += w[i][j]
			}
			if math.Abs(cs-1) > 1e-12 {
				t.Errorf("%s: column %d sums to %g", g.Name, j, cs)
			}
		}
	}
}

func TestUniformWeightsDoublyStochasticOnRegular(t *testing.T) {
	for _, g := range []*Graph{Ring(8), RingBased(8), DoubleRing(8), Complete(5)} {
		if !IsDoublyStochastic(g.UniformWeights(), 1e-12) {
			t.Errorf("%s: uniform weights should be doubly stochastic on regular graph", g.Name)
		}
	}
	// Star is irregular: uniform weights are column- but not
	// row-stochastic.
	if IsDoublyStochastic(Star(6).UniformWeights(), 1e-12) {
		t.Error("star uniform weights unexpectedly doubly stochastic")
	}
}

func TestMetropolisWeightsDoublyStochastic(t *testing.T) {
	for _, g := range []*Graph{Ring(8), Star(6), Setting1(), Setting2(), Setting3(), Chain(5)} {
		w := g.MetropolisWeights()
		if !IsDoublyStochastic(w, 1e-12) {
			t.Errorf("%s: Metropolis weights not doubly stochastic", g.Name)
		}
		if !IsSymmetric(w, 1e-12) {
			t.Errorf("%s: Metropolis weights not symmetric", g.Name)
		}
		for i := 0; i < g.N(); i++ {
			if w[i][i] < -1e-12 {
				t.Errorf("%s: negative self weight %g", g.Name, w[i][i])
			}
		}
	}
}

func TestJacobiAgainstKnownEigenvalues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	eig := JacobiEigenvalues([][]float64{{2, 1}, {1, 2}})
	if math.Abs(eig[0]-1) > 1e-10 || math.Abs(eig[1]-3) > 1e-10 {
		t.Errorf("eigenvalues %v, want [1 3]", eig)
	}
	// Diagonal matrix.
	eig = JacobiEigenvalues([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Errorf("eigenvalues %v, want %v", eig, want)
		}
	}
}

// TestSpectralGapRingClosedForm compares the computed gap against the
// circulant closed form: for a ring with self-loops and uniform 1/3
// weights, eigenvalues are (1+2cos(2πk/n))/3.
func TestSpectralGapRingClosedForm(t *testing.T) {
	for _, n := range []int{4, 6, 8, 16} {
		g := Ring(n)
		got := SpectralGap(g.UniformWeights())
		second := 0.0
		for k := 1; k < n; k++ {
			lam := math.Abs((1 + 2*math.Cos(2*math.Pi*float64(k)/float64(n))) / 3)
			if lam > second {
				second = lam
			}
		}
		want := 1 - second
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("ring-%d spectral gap = %g, want %g", n, got, want)
		}
	}
}

// TestSpectralGapRingBased8ClosedForm: ring-based on 8 nodes has
// in-degree 4 (self, ±1, +4); eigenvalues are
// (1+2cos(πk/4)+cos(πk))/4; the second-largest magnitude is 0.5,
// giving gap 0.5.
func TestSpectralGapRingBased8ClosedForm(t *testing.T) {
	got := SpectralGap(RingBased(8).UniformWeights())
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ring-based-8 gap = %g, want 0.5", got)
	}
}

func TestSpectralGapCompleteIsOne(t *testing.T) {
	got := SpectralGap(Complete(6).UniformWeights())
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("complete graph gap = %g, want 1", got)
	}
}

// TestFig21SettingsGapOrdering reproduces the qualitative Figure 21
// claim: the placement-aware graphs (settings 2 and 3) have much
// smaller spectral gaps than the symmetric baseline, and very close to
// each other.
func TestFig21SettingsGapOrdering(t *testing.T) {
	g1 := SpectralGap(Setting1().MetropolisWeights())
	g2 := SpectralGap(Setting2().MetropolisWeights())
	g3 := SpectralGap(Setting3().MetropolisWeights())
	t.Logf("spectral gaps: setting1=%.4f setting2=%.4f setting3=%.4f", g1, g2, g3)
	if !(g2 < g1 && g3 < g1) {
		t.Errorf("placement-aware gaps (%g, %g) should be below baseline %g", g2, g3, g1)
	}
	if math.Abs(g2-g3) > 0.15 {
		t.Errorf("settings 2 and 3 should have similar gaps: %g vs %g", g2, g3)
	}
}

func TestAsymmetricSpectralGapDirectedRing(t *testing.T) {
	// Directed ring with self-loops, weights 1/2: eigenvalues
	// (1+ω^k)/2, |λ2| = |1+ω|/2 = cos(π/n).
	n := 8
	w := DirectedRing(n).UniformWeights()
	if IsSymmetric(w, 1e-12) {
		t.Fatal("directed ring weights should be asymmetric")
	}
	got := SpectralGap(w)
	want := 1 - math.Cos(math.Pi/float64(n))
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("directed ring gap = %g, want %g", got, want)
	}
}

func TestEvenPlacement(t *testing.T) {
	g := RingBased(16)
	EvenPlacement(g, 4)
	if g.NumMachines() != 4 {
		t.Fatalf("machines = %d, want 4", g.NumMachines())
	}
	counts := make([]int, 4)
	for _, m := range g.Machine {
		counts[m]++
	}
	for i, c := range counts {
		if c != 4 {
			t.Errorf("machine %d has %d workers, want 4", i, c)
		}
	}
	if g.MachineOf(0) != 0 || g.MachineOf(15) != 3 {
		t.Error("placement order wrong")
	}
}

func TestMachineOfDefaultsToZero(t *testing.T) {
	g := Ring(4)
	if g.MachineOf(3) != 0 || g.NumMachines() != 1 {
		t.Error("default placement should be single machine")
	}
}

// Property: for random connected graphs, Metropolis weights are always
// doubly stochastic and the spectral gap lies in [0, 1].
func TestPropertyMetropolisAlwaysDoublyStochastic(t *testing.T) {
	f := func(seed uint32) bool {
		n := 3 + int(seed%10)
		g := randomConnected(n, int64(seed))
		w := g.MetropolisWeights()
		if !IsDoublyStochastic(w, 1e-9) {
			return false
		}
		gap := SpectralGap(w)
		return gap >= -1e-9 && gap <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: shortest paths satisfy the triangle inequality.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed uint32) bool {
		n := 4 + int(seed%8)
		g := randomConnected(n, int64(seed)+7)
		d := allPairs(g)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if d[a][b] >= 0 && d[b][c] >= 0 && d[a][c] > d[a][b]+d[b][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomConnected builds a random connected undirected graph by
// spanning tree + random extra edges, using a tiny deterministic LCG.
func randomConnected(n int, seed int64) *Graph {
	g := New("random", n)
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(m int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(m))
	}
	for i := 1; i < n; i++ {
		g.AddBiEdge(i, next(i))
	}
	extra := next(n) + 1
	for e := 0; e < extra; e++ {
		a, b := next(n), next(n)
		if a != b {
			g.AddBiEdge(a, b)
		}
	}
	return g
}

func TestStringFormats(t *testing.T) {
	g := Setting1()
	s := g.String()
	if s == "" {
		t.Error("empty String()")
	}
}
