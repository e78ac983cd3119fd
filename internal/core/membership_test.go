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
// restarted peer at the survivor's iteration k with the peer's grant
// taken as at least k, so once the survivor has run past the dead
// peer's last grant the queue holds max_ig, the Theorem 2 count of two
// workers at the same iteration. The restart's announce, an
// iteration-0 grant, raises nothing.
func TestRejoinRearmsTokensAtMaxIG(t *testing.T) {
	const d, maxIG, k = 1, 2, 4
	cfg := Config{Graph: graph.Ring(3), MaxIter: 10, MaxIG: maxIG, FaultTolerance: true}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.DeliverTokens(d, k-1) // d's last grant before it crashed
	crashPeer(t, p, d)

	p.DeliverTokens(d, 0)
	p.applyMembership(k)
	if !slices.Contains(p.out, d) {
		t.Fatalf("out-edge to %d not re-admitted (out %v)", d, p.out)
	}
	if n, _, _ := p.Tokens(d); n != maxIG {
		t.Errorf("TokenQ(%d→0) holds %d after the rejoin at %d, want max_ig = %d", d, n, k, maxIG)
	}
}

// TestRestartAnnounceKeepsDeathPending: worker 1 of a ring crashed, and
// worker 0 holds its death declared but not applied — no wait of 0's
// has yet lacked an update the old incarnation never sent. The
// restart's iteration-0 announce must leave that death pending:
// clearing it would leave 0 waiting on the old incarnation forever.
// The wait that lacks 1's update applies it, the rejoin the announce
// began stays under way with the k0 the new incarnation's first real
// update pinned meanwhile, and both edges come back in their stages.
func TestRestartAnnounceKeepsDeathPending(t *testing.T) {
	const d, k, k0 = 1, 5, 7
	cfg := Config{Graph: graph.Ring(3), MaxIter: 10, FaultTolerance: true}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.DeclarePeerDead(d)
	p.Deliver(Update{Params: []float64{1}, Iter: 0, From: d})
	p.Deliver(Update{Params: []float64{1}, Iter: k0, From: d})
	p.mon.Lock()
	dying := p.peerOf(d).dying
	p.applyDeathsLocked([]int{d}, func(int) bool { return true })
	p.mon.Unlock()
	if !dying {
		t.Fatal("the restart's announce cleared the pending death")
	}
	if slices.Contains(p.in, d) || slices.Contains(p.out, d) {
		t.Fatalf("after the death: in %v, out %v still hold %d", p.in, p.out, d)
	}
	for _, it := range []int{k, k0} {
		p.applyMembership(it)
		if !slices.Contains(p.out, d) {
			t.Errorf("iteration %d: out-edge to %d not re-admitted (out %v)", it, d, p.out)
		}
		if got, want := slices.Contains(p.in, d), it >= k0; got != want {
			t.Errorf("iteration %d: in-edge from %d required = %v, want %v (k0 = %d)", it, d, got, want, k0)
		}
	}
}

// grantRuntime records every grant its protocol makes.
type grantRuntime struct {
	nopRuntime
	grants [][2]int // (dst, iter)
}

func (r *grantRuntime) GrantTokens(dst, iter int) { r.grants = append(r.grants, [2]int{dst, iter}) }

// TestRejoinerEntersK0WithTokens: a restarted worker enters its rejoin
// iteration k0 like any advance. It grants k0 to its in-neighbors, after
// the iteration-0 announce an in-only neighbor gets, and it reads each
// out-neighbor's queue as holding max_ig, the Theorem 2 count at equal
// iterations, not the negative count of a view that has seen no grant.
// A grant that arrived before k0 was known, read then against no
// iteration, leaves the queue's high-water at that count too.
func TestRejoinerEntersK0WithTokens(t *testing.T) {
	const maxIG, newest = 2, 5
	// On a directed ring worker 0 hears from 3 and sends to 1.
	cfg := Config{Graph: graph.DirectedRing(4), MaxIter: 10, MaxIG: maxIG, FaultTolerance: true, Rejoin: true}
	rt := &grantRuntime{}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.DeliverTokens(1, newest)
	p.Deliver(Update{Params: []float64{1}, Iter: newest, From: 3})
	if k0 := p.joinSync(); k0 != newest+1 {
		t.Fatalf("rejoined at %d, want %d", k0, newest+1)
	}
	if want := [][2]int{{3, 0}, {3, newest + 1}}; !slices.Equal(rt.grants, want) {
		t.Errorf("grants %v, want %v", rt.grants, want)
	}
	if n, high, _ := p.Tokens(1); n != maxIG || high != maxIG {
		t.Errorf("TokenQ(1→0) holds %d, high-water %d at k0, want both max_ig = %d", n, high, maxIG)
	}
}

// TestNotifyAckRejoinerAcksK0Minus1: under NOTIFY-ACK a restarted
// worker's grant of k0 is its ACK(k0−1), the one its in-neighbors'
// Send(k0) waits for, and it takes each out-neighbor's grant as at
// least k0, so its own Send(k0) waits on no ACK of an iteration it
// never ran. The validator still refuses NOTIFY-ACK restarts
// (DESIGN.md §6.3); joinSync's re-base does not depend on that.
func TestNotifyAckRejoinerAcksK0Minus1(t *testing.T) {
	const newest = 5
	// On a directed ring worker 0 hears from 3 and sends to 1.
	cfg := Config{Graph: graph.DirectedRing(4), MaxIter: 10, Mode: ModeNotifyAck, FaultTolerance: true}
	rt := &grantRuntime{}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Deliver(Update{Params: []float64{1}, Iter: newest, From: 3})
	k0 := p.joinSync()
	if k0 != newest+1 {
		t.Fatalf("rejoined at %d, want %d", k0, newest+1)
	}
	if want := [][2]int{{3, 0}, {3, k0}}; !slices.Equal(rt.grants, want) {
		t.Errorf("grants %v, want %v", rt.grants, want)
	}
	p.mon.Lock()
	open := p.grantedAllLocked(k0)
	p.mon.Unlock()
	if !open {
		t.Errorf("Send(%d) gated on an ACK of an iteration the rejoiner never ran", k0)
	}
}
