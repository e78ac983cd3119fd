package graph

import (
	"testing"
)

// TestTopologyProperties is the table-driven property suite over every
// generator: strong connectivity, the kind's degree bound, symmetry
// where the kind promises it, and byte-identical adjacency across
// repeated builds at the same parameters (the determinism that lets a
// scenario spec reproduce its graph from the seed alone).
func TestTopologyProperties(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *Graph
		maxDegree int  // inclusive bound on per-node out-degree (no self)
		symmetric bool // i→j implies j→i
	}{
		{"ring-8", func() *Graph { return Ring(8) }, 2, true},
		{"ring-257", func() *Graph { return Ring(257) }, 2, true},
		{"ring-based-8", func() *Graph { return RingBased(8) }, 3, true},
		{"ring-based-64", func() *Graph { return RingBased(64) }, 3, true},
		{"double-ring-16", func() *Graph { return DoubleRing(16) }, 4, true},
		{"complete-9", func() *Graph { return Complete(9) }, 8, true},
		{"star-7", func() *Graph { return Star(7) }, 6, true},
		{"chain-9", func() *Graph { return Chain(9) }, 2, true},
		{"directed-ring-8", func() *Graph { return DirectedRing(8) }, 1, false},
		{"setting1", Setting1, 3, true},
		{"setting2", Setting2, 5, true},
		{"setting3", Setting3, 5, true},
		// Hierarchical kinds: intra-group degree + at most two
		// inter-group representative edges per node (a group's k-th
		// and (k-1)-th pair edges can rotate onto the same worker).
		{"hier-ring-16x4", func() *Graph { return HierRing(16, 4) }, 2 + 2, true},
		{"hier-ring-257x16", func() *Graph { return HierRing(257, 16) }, 2 + 2, true},
		{"hier-ring-8x8", func() *Graph { return HierRing(8, 8) }, 2, true},
		{"hier-allreduce-16x4", func() *Graph { return HierAllReduce(16, 4) }, 3 + 2, true},
		{"hier-allreduce-256x32", func() *Graph { return HierAllReduce(256, 32) }, 7 + 2, true},
		{"hier-allreduce-9x2", func() *Graph { return HierAllReduce(9, 2) }, 4 + 2, true},
		{"expander-64-d4", func() *Graph { return Expander(64, 4, 600) }, 4, true},
		{"expander-257-d6", func() *Graph { return Expander(257, 6, 601) }, 6, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !g.StronglyConnected() {
				t.Fatal("not strongly connected")
			}
			for i := 0; i < g.N(); i++ {
				if d := len(g.Out(i)); d > tc.maxDegree {
					t.Errorf("node %d out-degree %d exceeds bound %d", i, d, tc.maxDegree)
				}
			}
			if tc.symmetric {
				for i := 0; i < g.N(); i++ {
					for _, j := range g.Out(i) {
						if !g.HasEdge(j, i) {
							t.Errorf("edge %d->%d has no reverse", i, j)
						}
					}
				}
			}
			// Byte-identical adjacency (and placement) across repeated
			// builds with the same parameters.
			h := tc.build()
			if g.String() != h.String() {
				t.Error("repeated builds differ")
			}
			for i := 0; i < g.N(); i++ {
				if g.MachineOf(i) != h.MachineOf(i) {
					t.Fatalf("placement differs at node %d", i)
				}
			}
			// The cached diameter must match a fresh all-pairs result.
			want := oracleDiameter(g)
			if got := g.Diameter(); got != want {
				t.Errorf("Diameter = %d, all-pairs max = %d", got, want)
			}
			if got := g.Diameter(); got != want { // cached second call
				t.Errorf("cached Diameter = %d, want %d", got, want)
			}
		})
	}
}

// TestHierPlacementMatchesEvenPlacement pins the contract that makes
// intra-group edges price as in-machine links: the hierarchical
// generators place group k exactly where EvenPlacement puts machine k.
func TestHierPlacementMatchesEvenPlacement(t *testing.T) {
	for _, nm := range [][2]int{{16, 4}, {257, 16}, {9, 2}, {8, 1}} {
		n, m := nm[0], nm[1]
		g := HierRing(n, m)
		want := New("ref", n)
		EvenPlacement(want, m)
		for i := 0; i < n; i++ {
			if g.MachineOf(i) != want.MachineOf(i) {
				t.Fatalf("HierRing(%d,%d): worker %d on machine %d, EvenPlacement says %d",
					n, m, i, g.MachineOf(i), want.MachineOf(i))
			}
		}
	}
}

// TestHierIntraGroupEdgesStayInMachine verifies no intra-group edge of
// the hierarchical kinds crosses machines, and that the inter-group
// ring touches every machine.
func TestHierIntraGroupEdgesStayInMachine(t *testing.T) {
	for _, build := range []func(int, int) *Graph{HierRing, HierAllReduce} {
		g := build(64, 8)
		cross := make(map[int]bool)
		for i := 0; i < g.N(); i++ {
			for _, j := range g.Out(i) {
				if g.MachineOf(i) != g.MachineOf(j) {
					cross[g.MachineOf(i)] = true
				}
			}
		}
		if len(cross) != 8 {
			t.Fatalf("%s: inter-group edges touch %d machines, want all 8", g.Name, len(cross))
		}
	}
}

// TestExpanderSeedSensitivity: different seeds give different chord
// sets (same seed being identical is covered by the property table).
func TestExpanderSeedSensitivity(t *testing.T) {
	a := Expander(64, 6, 1)
	b := Expander(64, 6, 2)
	if a.String() == b.String() {
		t.Fatal("expander adjacency identical across different seeds")
	}
}

// TestExpanderDiameterBeatsRing pins the reason the kind exists: at
// n=256 the ring's diameter is 128, the degree-4 expander's is far
// smaller.
func TestExpanderDiameterBeatsRing(t *testing.T) {
	if d := Expander(256, 4, 600).Diameter(); d >= 32 {
		t.Fatalf("expander-256 diameter %d, want << ring's 128", d)
	}
}

// TestTopologyPanics pins the loud-failure contract on invalid
// parameters.
func TestTopologyPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"ring-based odd", func() { RingBased(7) }},
		{"double-ring not mult of 4", func() { DoubleRing(10) }},
		{"hier-ring zero machines", func() { HierRing(8, 0) }},
		{"hier-allreduce machines > workers", func() { HierAllReduce(4, 5) }},
		{"expander tiny", func() { Expander(3, 4, 1) }},
		{"expander odd degree", func() { Expander(16, 5, 1) }},
		{"expander degree too small", func() { Expander(16, 2, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestDiameterCacheInvalidation: adding an edge after a Diameter call
// must invalidate the cached value.
func TestDiameterCacheInvalidation(t *testing.T) {
	g := Chain(8)
	if d := g.Diameter(); d != 7 {
		t.Fatalf("chain-8 diameter = %d, want 7", d)
	}
	g.AddBiEdge(0, 7) // close the ring
	if d := g.Diameter(); d != 4 {
		t.Fatalf("after closing the ring, diameter = %d, want 4", d)
	}
}

// TestDiameterUpTo: the capped sweep answers min(diameter, limit) at
// every limit, whether it starts fresh or from what an earlier limit
// left memoized (ascending and descending), and -1 without strong
// connectivity.
func TestDiameterUpTo(t *testing.T) {
	disc := New("disc", 4)
	disc.AddBiEdge(0, 1)
	disc.AddBiEdge(2, 3)
	graphs := map[string]func() *Graph{
		"single":    func() *Graph { return New("one", 1) },
		"ring-40":   func() *Graph { return Ring(40) },
		"dring-9":   func() *Graph { return DirectedRing(9) },
		"chain-12":  func() *Graph { return Chain(12) },
		"complete":  func() *Graph { return Complete(7) },
		"star":      func() *Graph { return Star(9) },
		"expander":  func() *Graph { return Expander(64, 4, 600) },
		"hier-ring": func() *Graph { return HierRing(32, 4) },
		"disc":      func() *Graph { return disc },
	}
	for name, build := range graphs {
		want := oracleDiameter(build())
		top := want + 3
		asc, desc := build(), build()
		for limit := 1; limit <= top; limit++ {
			exp := min(want, limit)
			if got := build().DiameterUpTo(limit); got != exp {
				t.Errorf("%s: fresh DiameterUpTo(%d) = %d, want %d", name, limit, got, exp)
			}
			if got := asc.DiameterUpTo(limit); got != exp {
				t.Errorf("%s: ascending DiameterUpTo(%d) = %d, want %d", name, limit, got, exp)
			}
			dl := top + 1 - limit
			if got := desc.DiameterUpTo(dl); got != min(want, dl) {
				t.Errorf("%s: descending DiameterUpTo(%d) = %d, want %d", name, dl, got, min(want, dl))
			}
		}
		if got := asc.Diameter(); got != want {
			t.Errorf("%s: Diameter after capped calls = %d, want %d", name, got, want)
		}
	}
}

// TestConnectivityCacheInvalidation: the memoized verdict follows
// AddEdge, as the diameter does.
func TestConnectivityCacheInvalidation(t *testing.T) {
	g := New("path", 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.StronglyConnected() || g.DiameterUpTo(1) != -1 {
		t.Fatal("directed path reported strongly connected")
	}
	g.AddEdge(2, 0)
	if !g.StronglyConnected() {
		t.Fatal("closing the directed cycle left the cached verdict stale")
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("directed 3-cycle diameter = %d, want 2", d)
	}
}
