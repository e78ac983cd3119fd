package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hop/internal/graph"
)

// Property: over any random operation sequence of distinct tags,
// update-queue accounting is conserved — entries enqueued equal entries
// dequeued plus stale-discarded plus still-queued. (A repeated tag is a
// duplicate the queue drops: TestEnqueueDropsDuplicateTag.)
func TestPropertyUpdateQueueConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewUpdateQueue(NewSyncMonitor(), 1+rng.Intn(5))
		enq, deq := 0, 0
		maxIter := 0
		seen := map[[2]int]bool{}
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				iter, from := rng.Intn(8), rng.Intn(4)
				if seen[[2]int{iter, from}] {
					continue
				}
				seen[[2]int{iter, from}] = true
				if iter > maxIter {
					maxIter = iter
				}
				q.Enqueue(Update{Params: []float64{1}, Iter: iter, From: from})
				enq++
			} else {
				iter := rng.Intn(8)
				if q.SizeIter(iter) > 0 {
					deq += len(q.DequeueIterAtLeast(1, iter))
				}
			}
		}
		// Drain everything left, iteration by iteration.
		for iter := 0; iter <= maxIter; iter++ {
			if q.SizeIter(iter) > 0 {
				deq += len(q.DequeueIterAtLeast(1, iter))
			}
		}
		// Remaining entries are exactly those neither dequeued nor
		// discarded as stale.
		return enq == deq+q.StaleDiscarded()+q.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: DrainFrom returns exactly the entries of that sender and
// leaves everything else, over distinct tags.
func TestPropertyDrainFromPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewUpdateQueue(NewSyncMonitor(), 3)
		perSender := map[int]int{}
		total := 0
		seen := map[[2]int]bool{}
		for i := 0; i < 100; i++ {
			iter, from := rng.Intn(6), rng.Intn(5)
			if seen[[2]int{iter, from}] {
				continue
			}
			seen[[2]int{iter, from}] = true
			q.Enqueue(Update{Params: []float64{1}, Iter: iter, From: from})
			perSender[from]++
			total++
		}
		target := rng.Intn(5)
		got := q.DrainFrom(target)
		if len(got) != perSender[target] {
			return false
		}
		for _, u := range got {
			if u.From != target {
				return false
			}
		}
		return q.Size() == total-perSender[target]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: token queues never go negative and Put/Take telescope.
func TestPropertyTokenConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		init := rng.Intn(5)
		tq := NewTokenQueue(NewSyncMonitor(), init)
		puts, takes := 0, 0
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 {
				n := 1 + rng.Intn(3)
				tq.Put(n)
				puts += n
			} else if tq.Size() > 0 {
				tq.Take(1)
				takes++
			}
			if tq.Size() < 0 {
				return false
			}
		}
		return tq.Size() == init+puts-takes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: on any random strongly-connected graph, loosening max_ig
// never tightens a Table 1 bound, and every bound is at least the
// standard (token-free) bound capped by the token term.
func TestPropertyBoundsMonotoneInMaxIG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := graph.Ring(n) // strongly connected, asymmetric paths when directed
		small := NewBounds(Config{Graph: g, MaxIG: 1 + rng.Intn(3)})
		bigIG := 4 + rng.Intn(4)
		big := NewBounds(Config{Graph: g, MaxIG: bigIG})
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if small.Gap(i, j) > big.Gap(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: gap tracker max is monotone non-decreasing and consistent
// with a reference computation, on a complete graph (every pair
// adjacent).
func TestPropertyGapTrackerMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		tr := NewGapTrackerFor(NewSyncMonitor(), graph.Complete(n))
		iters := make([]int, n)
		ref := make([][]int, n)
		for i := range ref {
			ref[i] = make([]int, n)
		}
		for step := 0; step < 200; step++ {
			w := rng.Intn(n)
			iters[w]++
			tr.Advance(w, iters[w])
			for j := 0; j < n; j++ {
				if j != w && iters[w]-iters[j] > ref[w][j] {
					ref[w][j] = iters[w] - iters[j]
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && tr.MaxGap(i, j) != ref[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
