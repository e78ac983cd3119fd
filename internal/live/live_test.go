package live

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hop/internal/chaos"
	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/model"
)

// launch starts one live worker per graph node on loopback TCP, fully
// meshes the neighbor connections, and runs each the way one hopnode
// process does — Run, Finish, Close, with no join before the close —
// returning the (closed) workers once all have left.
func launch(t *testing.T, g *graph.Graph, mk func(i int) WorkerConfig) []*Worker {
	t.Helper()
	n := g.N()
	workers := make([]*Worker, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		cfg := mk(i)
		cfg.ID = i
		cfg.Graph = g
		cfg.ListenAddr = "127.0.0.1:0"
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	for i, w := range workers {
		if err := w.Connect(addrs, 5*time.Second); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	finished := make([]bool, n)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			defer w.Close()
			if _, errs[i] = w.Run(); errs[i] == nil {
				finished[i] = w.Finish(DefaultLinger)
			}
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d run: %v", i, err)
		}
		if !finished[i] {
			t.Errorf("worker %d: peers still running after %v", i, DefaultLinger)
		}
	}
	return workers
}

func quadStart(i int) model.Trainer {
	return model.NewQuadratic([]float64{float64(i), float64(i)}, []float64{1, 2}, 0.2, 0.02)
}

func TestLiveStandardConverges(t *testing.T) {
	g := graph.Ring(4)
	workers := launch(t, g, func(i int) WorkerConfig {
		return WorkerConfig{Config: core.Config{MaxIter: 40, Seed: 1}, Trainer: quadStart(i)}
	})
	for i, w := range workers {
		if loss := w.cfg.Trainer.EvalLoss(); loss > 0.3 {
			t.Errorf("worker %d loss %g", i, loss)
		}
	}
}

func TestLiveTokensAndBackup(t *testing.T) {
	g := graph.RingBased(8)
	delay := func(i int) func(int) time.Duration {
		if i != 0 {
			return nil
		}
		return func(int) time.Duration { return 3 * time.Millisecond } // worker 0 is slower
	}
	workers := launch(t, g, func(i int) WorkerConfig {
		return WorkerConfig{
			Config: core.Config{
				MaxIG: 3, Backup: 1, SendCheck: true,
				MaxIter: 30, Seed: 2,
			},
			Trainer: quadStart(i), ComputeDelay: delay(i),
		}
	})
	for i, w := range workers {
		if loss := w.cfg.Trainer.EvalLoss(); loss > 0.5 {
			t.Errorf("worker %d loss %g", i, loss)
		}
	}
}

func TestLiveStaleness(t *testing.T) {
	g := graph.Ring(4)
	workers := launch(t, g, func(i int) WorkerConfig {
		return WorkerConfig{
			Config: core.Config{
				Staleness: 2, MaxIG: 6,
				MaxIter: 40, Seed: 3,
			},
			Trainer: quadStart(i),
		}
	})
	for i, w := range workers {
		if loss := w.cfg.Trainer.EvalLoss(); loss > 0.5 {
			t.Errorf("worker %d loss %g", i, loss)
		}
	}
}

func TestLiveSkipWithStraggler(t *testing.T) {
	g := graph.Ring(6)
	jumpsSeen := 0
	var mu sync.Mutex
	workers := launch(t, g, func(i int) WorkerConfig {
		cfg := WorkerConfig{
			Config: core.Config{
				MaxIG: 3, Backup: 1, SendCheck: true,
				MaxJump: 5,
				MaxIter: 40, Seed: 4,
			},
			Trainer: quadStart(i),
		}
		if i == 0 {
			cfg.ComputeDelay = func(int) time.Duration { return 5 * time.Millisecond }
			prev := -1
			cfg.OnIteration = func(iter int, _ float64) {
				mu.Lock()
				if prev >= 0 && iter > prev+1 {
					jumpsSeen++
				}
				prev = iter
				mu.Unlock()
			}
		}
		return cfg
	})
	_ = workers
	mu.Lock()
	defer mu.Unlock()
	if jumpsSeen == 0 {
		t.Log("straggler never jumped (timing-dependent); acceptable but unusual")
	}
}

func TestLiveIterationCallbacksOrdered(t *testing.T) {
	g := graph.Ring(4)
	var iters []int
	var mu sync.Mutex
	launch(t, g, func(i int) WorkerConfig {
		cfg := WorkerConfig{Config: core.Config{MaxIter: 10, Seed: 5}, Trainer: quadStart(i)}
		if i == 0 {
			cfg.OnIteration = func(iter int, _ float64) {
				mu.Lock()
				iters = append(iters, iter)
				mu.Unlock()
			}
		}
		return cfg
	})
	mu.Lock()
	defer mu.Unlock()
	if len(iters) != 10 {
		t.Fatalf("worker 0 reported %d iterations, want 10", len(iters))
	}
	for i, it := range iters {
		if it != i {
			t.Fatalf("iteration order %v", iters)
		}
	}
}

// TestLiveStalenessBoundWithCompressedChunkedUpdates is the Fig. 9
// regression for the binary wire layer: with bounded staleness s, the
// oldest update a Reduce may aggregate is k−s, and that bound must
// survive updates that arrive compressed, split across many chunks,
// and interleaved out of order relative to token frames. Updates longer
// than 16 384 coordinates take more than one 64 KiB frame even at
// float32 (and TopK's dense warm start with them); per-worker jitter
// shuffles arrival order. The workers disagree on 64 coordinates and
// start the rest at the target, with the gradient noise scaled so the
// whole vector carries as much of it as 64 coordinates at 0.02. The
// duplicate case delivers 30 % of the single-frame messages twice —
// the token frames, since a multi-chunk update is never duplicated.
func TestLiveStalenessBoundWithCompressedChunkedUpdates(t *testing.T) {
	const s, dim, active = 2, 20000, 64
	noise := 0.02 * math.Sqrt(active/float64(dim))
	start := func(i int) model.Trainer {
		x0 := make([]float64, dim)
		target := make([]float64, dim)
		for d := range x0 {
			target[d] = float64(d%5) / 5
			x0[d] = target[d]
			if d < active {
				x0[d] = float64(i%3) + 0.5
			}
		}
		return model.NewQuadratic(x0, target, 0.2, noise)
	}
	// topk:0.1 is the headline sparse operating point: it exercises the
	// delta-stream path end to end (a zero-filled decode averaged into
	// the model would blow the loss bound below).
	for _, tc := range []struct {
		name, spec string
		chaos      *chaos.Config
	}{
		{"none", "none", nil},
		{"float32", "float32", nil},
		{"topk:1", "topk:1", nil},
		{"topk:0.1", "topk:0.1", nil},
		{"duplicate", "none", &chaos.Config{Duplicate: 0.3}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			comp, err := compress.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.Ring(4)
			const maxIG = 6
			coreCfg := core.Config{
				Graph: g, Staleness: s, MaxIG: maxIG,
				Compression: comp, MaxIter: 40, Seed: 10,
			}
			if err := coreCfg.Validate(); err != nil {
				t.Fatal(err)
			}
			workers := launch(t, g, func(i int) WorkerConfig {
				cfg := WorkerConfig{Config: coreCfg, Trainer: start(i)}
				cfg.Seed += int64(i)
				if tc.chaos != nil {
					c := *tc.chaos
					c.Seed = 400 + int64(i)
					cfg.Chaos = &c
				}
				if i%2 == 0 {
					cfg.ComputeDelay = func(iter int) time.Duration {
						return time.Duration(iter%3) * time.Millisecond
					}
				}
				return cfg
			})
			for i, w := range workers {
				if got := w.MaxObservedStaleness(); got > s {
					t.Errorf("worker %d aggregated an update %d iterations old, bound %d", i, got, s)
				}
				if loss := w.cfg.Trainer.EvalLoss(); loss > 0.5 {
					t.Errorf("worker %d loss %g", i, loss)
				}
				st := w.WireStats()
				if st.UpdatesSent == 0 || st.FramesSent <= st.UpdatesSent {
					t.Errorf("worker %d: %d frames for %d updates — chunking never engaged", i, st.FramesSent, st.UpdatesSent)
				}
				if comp.Kind == compress.Float32 && st.CompressionRatio() < 1.9 {
					t.Errorf("worker %d: float32 ratio %.2f", i, st.CompressionRatio())
				}
				if comp.Kind == compress.TopK && comp.Ratio == 0.1 && st.CompressionRatio() < 4 {
					t.Errorf("worker %d: topk:0.1 realized only %.2fx on the wire", i, st.CompressionRatio())
				}
				if st.ReadErrors != 0 {
					t.Errorf("worker %d: %d inbound connections dropped", i, st.ReadErrors)
				}
				if tc.chaos != nil && st.ChaosDuplicated == 0 {
					t.Errorf("worker %d: no frame duplicated", i)
				}
			}
			// Token conservation: with every worker at MaxIter, Theorem 2
			// gives count = Iter(j) − Iter(i) + max_ig = max_ig exactly,
			// once in-flight grants land. Unlike the staleness-window
			// assertion above (which the Reduce guard enforces by
			// construction), this one is falsifiable by the wire layer: a
			// token frame lost, mis-decoded during chunk interleaving, or
			// counted twice when duplicated leaves a count permanently
			// below or above max_ig.
			deadline := time.Now().Add(5 * time.Second)
			for i, w := range workers {
				for _, j := range g.Out(i) {
					got, _, _ := w.Tokens(j)
					for got < maxIG && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond) // grants may still be in flight
						got, _, _ = w.Tokens(j)
					}
					if got != maxIG {
						t.Errorf("worker %d token count for out-neighbor %d: %d, want exactly %d", i, j, got, maxIG)
					}
				}
			}
		})
	}
}

func TestLiveConfigValidation(t *testing.T) {
	g := graph.Ring(4)
	cases := []WorkerConfig{
		{},
		{Config: core.Config{Graph: g}},
		{Config: core.Config{Graph: g, MaxIter: 1}, ID: 9, Trainer: quadStart(0)},
		{Config: core.Config{Graph: g}, ID: 0, Trainer: quadStart(0)},
		{Config: core.Config{Graph: g, MaxIter: 1, Backup: 1}, ID: 0, Trainer: quadStart(0)},
		{Config: core.Config{Graph: g, MaxIter: 1, MaxJump: 2}, ID: 0, Trainer: quadStart(0)},
		{Config: core.Config{Graph: g, MaxIter: 1, Compression: compress.Spec{Kind: compress.TopK, Ratio: 1e-5}}, ID: 0, Trainer: quadStart(0)},
	}
	for i, cfg := range cases {
		if _, err := NewWorker(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestLiveRejectsADPSGD: an AD-PSGD reply has no frame kind on the
// wire, so the mode is simulator-only and refused before any listener
// is bound.
func TestLiveRejectsADPSGD(t *testing.T) {
	_, err := NewWorker(WorkerConfig{
		Config: core.Config{Graph: graph.Ring(4), Mode: core.ModeADPSGD, MaxIter: 1},
		ID:     0, ListenAddr: "127.0.0.1:0",
		Trainer: quadStart(0),
	})
	if err == nil || !strings.Contains(err.Error(), "the wire has no reply frame") {
		t.Fatalf("error %v, want the adpsgd rejection", err)
	}
}

func TestLiveMissingNeighborAddress(t *testing.T) {
	g := graph.Ring(3)
	w, err := NewWorker(WorkerConfig{
		Config: core.Config{Graph: g, MaxIter: 1},
		ID:     0, ListenAddr: "127.0.0.1:0",
		Trainer: quadStart(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Connect(map[int]string{1: w.Addr()}, 100*time.Millisecond); err == nil {
		t.Error("missing neighbor address should fail")
	}
}

func TestLiveAddrFormat(t *testing.T) {
	g := graph.Ring(3)
	w, err := NewWorker(WorkerConfig{
		Config: core.Config{Graph: g, MaxIter: 1},
		ID:     1, ListenAddr: "127.0.0.1:0",
		Trainer: quadStart(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Addr() == "" {
		t.Error("empty address")
	}
	if fmt.Sprintf("%s", w.Addr())[:10] != "127.0.0.1:" {
		t.Errorf("addr %s", w.Addr())
	}
}
