package cluster

// scale_test.go — the O(degree) per-step cost contract at large n,
// and the O(n + E) set-up contract beside it.
//
// The membership audit behind it: under Hop, death notices, live dials
// and the live shutdown wait already walk the graph neighborhood
// (core.Config.ProtocolPeers), not the cluster; Prague's all-to-all
// group partners are inherently O(n) and out of scope here. What the
// gate below pins is the steady-state iteration loop: per worker-step
// allocation cost must not grow with the cluster size, only with the
// degree — the regression this catches is a new per-step structure
// sized by n (an O(n) scan, an eager all-workers slice) slipping into
// protocol, gap tracking, or the netsim event queue.

import (
	"runtime"
	"testing"

	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/model"
)

// stepAllocCost runs the ring-of-n cluster twice — short and long runs
// differing by exactly extraSteps worker-iterations each — and returns
// allocations per additional worker-step, isolating the steady-state
// loop from O(n) setup cost.
func stepAllocCost(t *testing.T, n int) float64 {
	t.Helper()
	const shortIter, longIter = 2, 22
	run := func(maxIter int) uint64 {
		opts := quadraticRing(n, maxIter)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(opts); err != nil {
			t.Fatalf("n=%d maxIter=%d: %v", n, maxIter, err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	shortRun := run(shortIter)
	longRun := run(longIter)
	steps := float64(n * (longIter - shortIter))
	return float64(longRun-shortRun) / steps
}

// TestStepAllocsIndependentOfClusterSize is the AllocsPerRun-style
// gate: per-worker-step allocations on a ring (constant degree) at
// n=1024 must stay within 2.5x of n=64. Any O(n) bookkeeping per step
// would show up as a ~16x ratio. Beside the ratio an absolute ceiling:
// a steady-state step allocates its parameter snapshot and, amortized,
// the probe worker's loss series (measured 1.0); a closure per
// message, a timer per sleep and a queue array per slot would each add
// one or more, so 5 catches any of them coming back.
func TestStepAllocsIndependentOfClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("four multi-hundred-worker simulations; skipped with -short")
	}
	small := stepAllocCost(t, 64)
	big := stepAllocCost(t, 1024)
	t.Logf("allocs per worker-step: n=64 %.1f, n=1024 %.1f", small, big)
	if small > 5 || big > 5 {
		t.Errorf("allocations per worker-step: n=64 %.1f, n=1024 %.1f, want <= 5 at both", small, big)
	}
	if big > small*2.5 {
		t.Fatalf("per-step allocations grew with cluster size: n=64 %.1f vs n=1024 %.1f (> 2.5x)",
			small, big)
	}
}

// quadraticRing is the options for a ring of n quadratic workers.
func quadraticRing(n, maxIter int) Options {
	opts := baseOptions(graph.Ring(n), maxIter)
	opts.Core.Trainers = make([]model.Trainer, n)
	for i := 0; i < n; i++ {
		opts.Core.Trainers[i] = model.NewQuadratic([]float64{5}, []float64{1}, 0.2, 0)
	}
	return opts
}

// setupBytes returns the bytes allocated by what a one-iteration run on
// a ring of n workers costs end to end, the way a benchmark child
// checks it: cluster.Run, the Table 1 bounds, and one Gap per adjacent
// pair.
func setupBytes(t *testing.T, n int) uint64 {
	t.Helper()
	opts := quadraticRing(n, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	b := core.NewBounds(opts.Core)
	g := opts.Core.Graph
	for i := 0; i < n; i++ {
		for _, j := range g.Out(i) {
			if b.Gap(i, j) < res.Engine.Gaps().MaxGap(i, j) {
				t.Fatalf("n=%d: gap(%d,%d) exceeds its bound", n, i, j)
			}
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSetupBytesLinearInClusterSize is the set-up gate: building,
// validating and bounds-checking a ring of 2048 workers must allocate
// at most 2.3× what 1024 workers do. Linear set-up reads ≈ 2; anything
// n×n — a distance matrix, a per-worker all-workers scan that
// allocates, a queue sized by the diameter — pushes it towards 4.
func TestSetupBytesLinearInClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-thousand-worker simulations; skipped with -short")
	}
	small, big := setupBytes(t, 1024), setupBytes(t, 2048)
	ratio := float64(big) / float64(small)
	t.Logf("set-up bytes: n=1024 %.1f MiB, n=2048 %.1f MiB (%.2fx)", float64(small)/(1<<20), float64(big)/(1<<20), ratio)
	if ratio > 2.3 {
		t.Fatalf("set-up allocation grew %.2fx from n=1024 to n=2048, want <= 2.3x", ratio)
	}
}
