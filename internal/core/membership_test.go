package core

import (
	"slices"
	"testing"

	"hop/internal/graph"
	"hop/internal/model"
)

// crashPeer declares peer d dead at p and applies the death, as a wait
// that lacks d's data does.
func crashPeer(t *testing.T, p *Protocol, d int) {
	t.Helper()
	p.DeclarePeerDead(d)
	p.mon.Lock()
	p.applyDeathsLocked([]int{d}, func(int) bool { return true })
	p.mon.Unlock()
	if slices.Contains(p.in, d) || slices.Contains(p.out, d) {
		t.Fatalf("after the death: in %v, out %v still hold %d", p.in, p.out, d)
	}
}

// TestRejoinRequiresInEdgeFromK0: worker 1 of a ring crashes and
// restarts; its first real update is tagged k0. At worker 0 the
// out-edge comes back at the first loop top after that message (stage
// one), but the in-edge — worker 1's updates required by the reduce —
// comes back at iteration k0 exactly: one iteration early would block
// on an update the rejoiner never sends, one late would reduce without
// the update it does send. A second update arriving before the loop
// top does not move k0.
func TestRejoinRequiresInEdgeFromK0(t *testing.T) {
	const d, k0 = 1, 6
	cfg := Config{Graph: graph.Ring(3), MaxIter: 10, FaultTolerance: true}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	crashPeer(t, p, d)

	// The restart: the rejoiner's first real update pins k0.
	p.Deliver(Update{Params: []float64{1}, Iter: k0, From: d})
	p.Deliver(Update{Params: []float64{1}, Iter: k0 + 1, From: d})
	for k := k0 - 2; k <= k0+1; k++ {
		p.applyMembership(k)
		if !slices.Contains(p.out, d) {
			t.Errorf("iteration %d: out-edge to %d not re-admitted (out %v)", k, d, p.out)
		}
		if got, want := slices.Contains(p.in, d), k >= k0; got != want {
			t.Errorf("iteration %d: in-edge from %d required = %v, want %v (k0 = %d)", k, d, got, want, k0)
		}
	}
}

// TestRejoinRearmsTokensAtMaxIG: stage one re-admits the out-edge to a
// restarted peer with its token counter at max_ig, the Theorem 2 count
// of two workers at the same iteration — whatever the counter held
// when the peer died.
func TestRejoinRearmsTokensAtMaxIG(t *testing.T) {
	const d, maxIG = 1, 2
	cfg := Config{Graph: graph.Ring(3), MaxIter: 10, MaxIG: maxIG, FaultTolerance: true}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.TokenIn(d).Put(3) // d had run ahead before it crashed
	crashPeer(t, p, d)

	// The restart announces itself with a zero-count grant.
	p.DeliverTokens(d, 0)
	p.applyMembership(4)
	if !slices.Contains(p.out, d) {
		t.Fatalf("out-edge to %d not re-admitted (out %v)", d, p.out)
	}
	if got := p.TokenIn(d).Size(); got != maxIG {
		t.Errorf("token counter toward %d holds %d after the rejoin, want max_ig = %d", d, got, maxIG)
	}
}
