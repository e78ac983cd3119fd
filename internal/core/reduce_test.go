package core

// The §5 pre-jump refresh is Recv(kr) with the active mode's semantics,
// reduced together with the worker's current parameters. These tests
// drive it directly, with neighbour updates queued at known iterations,
// and compare the refreshed parameters bit for bit with the reduce
// computed by hand, the current parameters first. The jump decision
// that precedes the refresh is driven the same way, from token counts.

import (
	"reflect"
	"testing"
	"time"

	"hop/internal/graph"
	"hop/internal/model"
	"hop/internal/tensor"
)

// goReduce runs reduce on its own goroutine. The returned channel is
// closed when reduce returns or when Abort has unwound its wait.
func goReduce(reduce func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(errAborted); !ok {
					panic(r)
				}
			}
		}()
		reduce()
	}()
	return done
}

// mustFinish fails the test unless done closes within ten seconds. A
// reduce still blocked then is unwound with Abort first.
func mustFinish(t *testing.T, p *Protocol, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.Abort()
		<-done
		t.Fatal("reduce still blocked with every update it needs queued")
	}
}

// recyclingRuntime is a nopRuntime that records every buffer the
// protocol hands back.
type recyclingRuntime struct {
	nopRuntime
	recycled [][]float64
}

func (r *recyclingRuntime) RecycleParams(v []float64) {
	if v != nil {
		r.recycled = append(r.recycled, v)
	}
}

// checkRecycled fails unless the buffers p handed back are exactly
// want, each once, in any order: every update the refresh drained is
// dead once reduced, and the worker's own parameters never are.
func checkRecycled(t *testing.T, p *Protocol, want ...[]float64) {
	t.Helper()
	got := p.rt.(*recyclingRuntime).recycled
	left := map[*float64]bool{}
	for _, v := range want {
		left[&v[0]] = true
	}
	for _, v := range got {
		if !left[&v[0]] {
			t.Fatalf("recycled %v, which is not one of the drained updates, or twice", v)
		}
		delete(left, &v[0])
	}
	if len(left) > 0 {
		t.Errorf("recycled %d buffers, want all %d drained updates", len(got), len(want))
	}
}

// refreshPeer builds worker 0 of a 4-worker complete graph, whose
// in-neighbours are 1, 2 and 3, with parameters x0.
func refreshPeer(t *testing.T, cfg Config, x0 []float64) (*Protocol, *Trace) {
	t.Helper()
	cfg.Graph = graph.Complete(4)
	tr := NewTrace()
	p, err := NewProtocol(cfg, 0, model.NewFrozen(x0), NewSyncMonitor(), &recyclingRuntime{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return p, tr
}

func TestPreJumpRefreshReduce(t *testing.T) {
	const kr = 6
	x0 := []float64{0.1, 1}
	a, b, c := []float64{0.2, 2}, []float64{0.3, 4}, []float64{5, 5}

	t.Run("staleness", func(t *testing.T) {
		const s = 2
		minIter := kr - s
		p, tr := refreshPeer(t, Config{Staleness: s}, x0)
		// 1 is one iteration behind kr, 2 at the window's edge. 3's newest
		// update (kr−1) was folded by an earlier reduce; all that is
		// queued from it is a duplicate from before the window.
		p.queue.Enqueue(Update{Params: a, Iter: kr - 1, From: 1})
		p.queue.Enqueue(Update{Params: b, Iter: minIter, From: 2})
		p.peerOf(3).iterRecv = kr - 1
		p.queue.Enqueue(Update{Params: c, Iter: minIter - 1, From: 3})
		mustFinish(t, p, goReduce(func() { p.renewParams(kr) }))

		// Eq. 2: weight iter − (kr−s) + 1; the current parameters take
		// the oldest admissible weight, 1.
		want := make([]float64, len(x0))
		tensor.WeightedMean(want, [][]float64{x0, a, b}, []float64{1, s, 1})
		if got := p.trainer.Params(); !reflect.DeepEqual(got, want) {
			t.Errorf("refreshed to %v, want the Eq. 2 mean %v", got, want)
		}
		if got, want := tr.String(), "S3@6"; got != want {
			t.Errorf("trace %q, want %q: the out-of-window neighbour is excluded", got, want)
		}
		if got := p.MaxObservedStaleness(); got != s {
			t.Errorf("MaxObservedStaleness = %d, want %d: the refresh's oldest input sits at the bound", got, s)
		}
		checkRecycled(t, p, a, b, c)
	})

	t.Run("backup", func(t *testing.T) {
		p, _ := refreshPeer(t, Config{MaxIG: 2, Backup: 1}, x0)
		// Two of three in-neighbours are enough; 3's update of an older
		// iteration is no part of Recv(kr).
		p.queue.Enqueue(Update{Params: a, Iter: kr, From: 1})
		p.queue.Enqueue(Update{Params: c, Iter: kr - 1, From: 3})
		p.queue.Enqueue(Update{Params: b, Iter: kr, From: 2})
		mustFinish(t, p, goReduce(func() { p.renewParams(kr) }))

		want := make([]float64, len(x0))
		tensor.Mean(want, [][]float64{x0, a, b})
		if got := p.trainer.Params(); !reflect.DeepEqual(got, want) {
			t.Errorf("refreshed to %v, want the mean %v", got, want)
		}
		checkRecycled(t, p, a, b, c)
	})
}

// TestJumpTarget: §5's jump decision read off the token counts toward
// the out-neighbours, each max_ig plus how far that neighbour is ahead.
// A worker at least jumpTrigger behind all of them jumps by the least
// lead, bounded by MaxJump and clamped to MaxIter. No neighbour passes
// MaxIter, so only a counter holding more tokens than that, as a
// duplicated grant frame leaves it, meets the clamp.
func TestJumpTarget(t *testing.T) {
	const k, maxIG = 10, 3
	for _, tc := range []struct {
		name           string
		ahead          [3]int // Iter(j) − k for out-neighbours 1, 2, 3
		maxJump, maxIt int
		want           int
	}{
		{"one behind: normal advance", [3]int{1, 4, 5}, 5, 0, k + 1},
		{"exactly the trigger behind", [3]int{2, 2, 2}, 5, 0, k + 2},
		{"least lead governs", [3]int{6, 3, 9}, 5, 0, k + 3},
		{"bounded by MaxJump", [3]int{7, 8, 9}, 5, 0, k + 5},
		{"clamped to MaxIter", [3]int{7, 8, 9}, 5, k + 3, k + 3},
	} {
		p, _ := refreshPeer(t, Config{MaxIG: maxIG, MaxJump: tc.maxJump, MaxIter: tc.maxIt}, []float64{0})
		for i, a := range tc.ahead {
			p.TokenIn(i + 1).Put(a)
		}
		if got := p.jumpTarget(k); got != tc.want {
			t.Errorf("%s: jumpTarget(%d) = %d, want %d", tc.name, k, got, tc.want)
		}
	}
}
