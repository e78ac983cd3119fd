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

	"hop/internal/chaos"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/model"
	"hop/internal/netsim"
)

// stepAllocCost runs the cluster build(n, ·) makes three times — a
// warm-up, then a short and a long run — and returns allocations per
// worker-step the long run adds, isolating the steady-state loop from
// set-up and from the process's one-time costs, and the long run's
// stale discards.
func stepAllocCost(t *testing.T, build func(n, maxIter int) Options, n int) (perStep float64, stale int) {
	t.Helper()
	const shortIter, longIter = 40, 120
	run := func(maxIter int) int64 {
		opts := build(n, maxIter)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("n=%d maxIter=%d: %v", n, maxIter, err)
		}
		runtime.ReadMemStats(&after)
		stale = res.Engine.Stats().StaleDiscarded
		return int64(after.Mallocs - before.Mallocs)
	}
	run(shortIter)
	shortRun := run(shortIter)
	longRun := run(longIter)
	return float64(longRun-shortRun) / float64(n*(longIter-shortIter)), stale
}

// TestStepAllocsIndependentOfClusterSize is the AllocsPerRun-style
// gate: once warm, a simulated worker-step allocates nothing, at n=64
// and at n=1024 alike. The parameter snapshot, each message's copy
// and every stale-dropped update's buffer cycle through the host's
// free list (the buffer-ownership contract, DESIGN.md §5.1), so an
// allocation per step would read 1, one per message 2 or more, and an
// O(n) per-step structure far more. What remains is the collector's
// and the runtime's own noise, a few dozen objects a run, and the free
// list's and queues' growth to their peaks: measured under 0.02 a step,
// -race included, against a gate of 0.05. The backup + send-check ring
// with random stragglers drops stale updates, the bounded-staleness
// ring drains and supersedes them, and the lossy one has the fabric
// drop a tenth of its messages, so the gate covers their recycling.
func TestStepAllocsIndependentOfClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-four multi-hundred-worker simulations; skipped with -short")
	}
	for _, c := range []struct {
		name       string
		build      func(n, maxIter int) Options
		dropsStale bool
	}{
		{"ring", quadraticRing, false},
		{"ring backup send-check", func(n, maxIter int) Options {
			opts := quadraticRing(n, maxIter)
			opts.Core.MaxIG, opts.Core.Backup, opts.Core.SendCheck = 4, 1, true
			opts.Compute.Slow = hetero.Random{Fact: 6, Prob: 1.0 / 16}
			return opts
		}, true},
		{"ring staleness", func(n, maxIter int) Options {
			opts := quadraticRing(n, maxIter)
			opts.Core.Staleness = 3
			opts.Compute.Slow = hetero.Random{Fact: 6, Prob: 1.0 / 16}
			return opts
		}, false},
		{"ring staleness drop", func(n, maxIter int) Options {
			opts := quadraticRing(n, maxIter)
			opts.Core.Staleness = 5
			opts.Net = netsim.Default1GbE()
			opts.Net.Chaos = &chaos.Config{Drop: 0.1, Seed: 403}
			return opts
		}, false},
	} {
		stale := 0
		for _, n := range []int{64, 1024} {
			perStep, s := stepAllocCost(t, c.build, n)
			stale += s
			t.Logf("%s: allocs per worker-step at n=%d: %.4f", c.name, n, perStep)
			if perStep >= 0.05 {
				t.Errorf("%s: %.4f allocations per worker-step at n=%d, want 0", c.name, perStep, n)
			}
		}
		if c.dropsStale && stale == 0 {
			t.Errorf("%s: no stale discards; the case does not exercise their recycling", c.name)
		}
	}
}

// quadraticRing is the options for a ring of n quadratic workers.
func quadraticRing(n, maxIter int) Options {
	opts := baseOptions(graph.Ring(n), maxIter)
	opts.Trainers = make([]model.Trainer, n)
	for i := 0; i < n; i++ {
		opts.Trainers[i] = model.NewQuadratic([]float64{5}, []float64{1}, 0.2, 0)
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
