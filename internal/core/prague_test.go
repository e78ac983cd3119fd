package core

// Unit tests for the Prague group scheduler: the static seeded
// schedule is the protocol's entire coordination mechanism, so its
// partition and determinism properties are pinned directly.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hop/internal/graph"
)

func TestPragueGroupsPartition(t *testing.T) {
	for _, tc := range []struct{ n, size int }{
		{4, 2}, {8, 4}, {8, 3}, {5, 2}, {7, 7}, {9, 4},
	} {
		for step := 0; step < 50; step++ {
			groups := PragueGroups(513, step, tc.n, tc.size)
			seen := make(map[int]bool)
			for gi, g := range groups {
				// Every group but the trailing remainder is full-size;
				// each is sorted ascending for canonical rendering.
				if gi < len(groups)-1 && len(g) != tc.size {
					t.Fatalf("n=%d size=%d step=%d: group %d has %d members",
						tc.n, tc.size, step, gi, len(g))
				}
				for i, w := range g {
					if i > 0 && g[i-1] >= w {
						t.Fatalf("group %v not sorted ascending", g)
					}
					if w < 0 || w >= tc.n || seen[w] {
						t.Fatalf("n=%d size=%d step=%d: worker %d repeated or out of range",
							tc.n, tc.size, step, w)
					}
					seen[w] = true
				}
			}
			if len(seen) != tc.n {
				t.Fatalf("n=%d size=%d step=%d: partition covers %d of %d workers",
					tc.n, tc.size, step, len(seen), tc.n)
			}
		}
	}
}

func TestPragueGroupsDeterministic(t *testing.T) {
	for step := 0; step < 20; step++ {
		a := PragueGroups(777, step, 8, 4)
		b := PragueGroups(777, step, 8, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: schedule not deterministic: %v vs %v", step, a, b)
		}
	}
	// Different seeds and different steps must actually vary the
	// partition — a constant schedule would satisfy every other test.
	base := PragueGroups(777, 0, 8, 4)
	varied := false
	for step := 1; step < 20 && !varied; step++ {
		varied = !reflect.DeepEqual(base, PragueGroups(777, step, 8, 4))
	}
	if !varied {
		t.Error("schedule identical across 20 steps")
	}
	if reflect.DeepEqual(base, PragueGroups(778, 0, 8, 4)) {
		t.Error("adjacent seeds produce the identical step-0 partition")
	}
}

// TestPragueGroupOfConsistent pins PragueGroupOf, which sorts only the
// caller's block of the step's permutation, to the full partition.
func TestPragueGroupOfConsistent(t *testing.T) {
	const seed = 513
	for n := 2; n <= 12; n++ {
		for size := 2; size <= n; size++ {
			for step := 0; step < 64; step++ {
				for _, g := range PragueGroups(seed, step, n, size) {
					for _, w := range g {
						if got := PragueGroupOf(seed, step, n, size, w); !reflect.DeepEqual(got, g) {
							t.Fatalf("n=%d size=%d step=%d worker %d: GroupOf %v, partition has %v",
								n, size, step, w, got, g)
						}
					}
				}
			}
		}
	}
}

func TestPragueConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  PragueConfig
		n    int
		ok   bool
		name string
	}{
		{PragueConfig{GroupSize: 2}, 4, true, "minimal"},
		{PragueConfig{GroupSize: 4, Quorum: 4}, 4, true, "full quorum explicit"},
		{PragueConfig{GroupSize: 1}, 4, false, "size below 2"},
		{PragueConfig{GroupSize: 5}, 4, false, "size above n"},
		{PragueConfig{GroupSize: 2, Quorum: 3}, 4, false, "quorum above size"},
		{PragueConfig{GroupSize: 2, Quorum: -1}, 4, false, "negative quorum"},
	}
	for _, tc := range cases {
		err := tc.cfg.validate(tc.n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}

// praguePeer builds worker 0 of an 8-worker Prague cluster (groups of
// 4, fault tolerant) on mon with the group of step k in place, as
// iterate leaves it before the reduce, and returns the group's other
// members.
func praguePeer(t *testing.T, mon Monitor, k, quorum int) (*Protocol, *Trace, []int) {
	t.Helper()
	const seed, n = 5, 8
	cfg := Config{Graph: graph.Ring(n), Mode: ModePrague, FaultTolerance: true,
		Prague: &PragueConfig{GroupSize: 4, Quorum: quorum, Seed: seed}}
	tr := NewTrace()
	p, err := NewProtocol(cfg, 0, nil, mon, nopRuntime{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	p.group = PragueGroupOf(seed, k, n, 4, 0)
	var others []int
	for _, j := range p.group {
		if j != 0 {
			others = append(others, j)
		}
	}
	return p, tr, others
}

// TestPragueReduceCountsEachMemberOnce: the group reduce averages one
// update per member — the queue keeps the first arrival and drops a
// duplicated delivery, which can then neither skew the mean nor close
// the quorum — and records every member it went without as an
// exclusion.
func TestPragueReduceCountsEachMemberOnce(t *testing.T) {
	const k = 3
	p, tr, others := praguePeer(t, NewSyncMonitor(), k, 2)
	p.queue.Enqueue(Update{Params: []float64{0}, Iter: k, From: 0})
	p.queue.Enqueue(Update{Params: []float64{3}, Iter: k, From: others[0]})
	p.queue.Enqueue(Update{Params: []float64{9}, Iter: k, From: others[0]})
	dst := []float64{-1}
	mustFinish(t, p, goReduce(func() { p.recvReduceInto(dst, k, nil) }))
	if dst[0] != 1.5 {
		t.Errorf("reduced %v, want the mean of one update per member, 1.5", dst[0])
	}
	if got := p.Stats().GroupExcluded; got != 2 {
		t.Errorf("GroupExcluded = %d, want 2", got)
	}
	var skipped []int
	for _, e := range tr.Events() {
		if e.Kind == TraceGroupSkip {
			skipped = append(skipped, e.From)
		}
	}
	if !reflect.DeepEqual(skipped, others[1:]) {
		t.Errorf("exclusions %v, want %v", skipped, others[1:])
	}
}

// TestPragueReduceAppliesOnlyMemberDeaths: a group reduce blocked on a
// member whose update is missing applies that member's pending death,
// and leaves a non-member's pending death pending — it is applied only
// when a shared step blocks on it.
func TestPragueReduceAppliesOnlyMemberDeaths(t *testing.T) {
	const k = 3
	p, _, others := praguePeer(t, NewSyncMonitor(), k, 0)
	outsider := -1
	for j := 1; j < 8 && outsider < 0; j++ {
		if !containsInt(p.group, j) {
			outsider = j
		}
	}
	p.DeclarePeerDead(outsider)
	p.DeclarePeerDead(others[1])
	p.queue.Enqueue(Update{Params: []float64{0}, Iter: k, From: 0})
	p.queue.Enqueue(Update{Params: []float64{3}, Iter: k, From: others[0]})
	p.queue.Enqueue(Update{Params: []float64{6}, Iter: k, From: others[2]})
	dst := []float64{-1}
	p.recvReduceInto(dst, k, nil)
	if dst[0] != 3 {
		t.Errorf("reduced %v, want 3", dst[0])
	}
	if got, want := p.DeadPeers(), []int{others[1]}; !reflect.DeepEqual(got, want) {
		t.Errorf("dead peers %v, want %v: only the blocking member's death applies", got, want)
	}
}

// TestPragueReduceProceedsAtQuorum: with Quorum 3 in a group of 4, the
// group reduce blocks on two member updates and proceeds on the third
// — the worker's own counted — without the fourth member, which it
// records as an exclusion.
func TestPragueReduceProceedsAtQuorum(t *testing.T) {
	const k = 3
	mon := blockingMonitor{NewSyncMonitor(), make(chan struct{}, 1)}
	p, tr, others := praguePeer(t, mon, k, 3)
	p.queue.Enqueue(Update{Params: []float64{0}, Iter: k, From: 0})
	p.queue.Enqueue(Update{Params: []float64{3}, Iter: k, From: others[0]})
	dst := []float64{-1}
	done := goReduce(func() { p.recvReduceInto(dst, k, nil) })
	select {
	case <-mon.blocked:
	case <-done:
		t.Fatal("group reduce proceeded on 2 member updates, quorum 3")
	case <-time.After(10 * time.Second):
		t.Fatal("group reduce never blocked")
	}
	p.queue.Enqueue(Update{Params: []float64{6}, Iter: k, From: others[1]})
	mustFinish(t, p, done)
	if dst[0] != 3 {
		t.Errorf("reduced %v, want the quorum's mean 3", dst[0])
	}
	if got := p.Stats().GroupExcluded; got != 1 {
		t.Errorf("GroupExcluded = %d, want 1", got)
	}
	if got, want := tr.String(), fmt.Sprintf("P%d@%d", others[2], k); got != want {
		t.Errorf("trace %q, want %q", got, want)
	}
}
