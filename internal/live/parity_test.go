package live

// Protocol-parity regressions: configurations that before the
// protocol-core extraction existed only as sim-plane tests
// (internal/cluster, internal/core) now run on real loopback TCP —
// NOTIFY-ACK, the serial computation graph, configurable stale
// weighting, and the stale-weighting × skip × compression cross. All
// run under -race in CI.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/leaktest"
	"hop/internal/model"
)

// TestLiveNotifyAck: the §3.3 baseline on real sockets — Send(k) gated
// on ACK(k−1) from every out-neighbor, each ACK a token frame granting
// k+1 after the Reduce of k.
// Formerly the live plane had no NotifyAck at all.
func TestLiveNotifyAck(t *testing.T) {
	g := graph.Ring(4)
	workers := launch(t, g, func(i int) WorkerConfig {
		return WorkerConfig{
			Config: core.Config{
				Mode: core.ModeNotifyAck, MaxIter: 30, Seed: 21,
			},
			Trainer: quadStart(i), Logger: NopLogger(),
		}
	})
	for i, w := range workers {
		if loss := w.Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("worker %d loss %g", i, loss)
		}
		st := w.WireStats()
		// Every iteration sends one update and one ACK (a token frame)
		// per out/in neighbor: frames must exceed update frames by the
		// ACK volume.
		if st.FramesSent < 2*st.UpdatesSent {
			t.Errorf("worker %d: %d frames for %d updates — ACKs never flowed", i, st.FramesSent, st.UpdatesSent)
		}
	}
}

// TestLiveSerialGraph: the Fig. 2(a) serial computation graph
// (compute→apply→send→reduce, exact gradients) live.
func TestLiveSerialGraph(t *testing.T) {
	g := graph.Ring(4)
	workers := launch(t, g, func(i int) WorkerConfig {
		return WorkerConfig{
			Config: core.Config{
				Serial: true, MaxIter: 30, Seed: 22,
			},
			Trainer: quadStart(i), Logger: NopLogger(),
		}
	})
	for i, w := range workers {
		if loss := w.Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("worker %d loss %g", i, loss)
		}
	}
}

// TestLiveStaleWeightingSkipCompressionMatrix crosses the two axes
// that interact with the bounded-staleness Reduce and its linear §4.4
// Eq. 2 weighting: §5 skipping under a real straggler, and the
// negotiated wire codec. Every cell must converge, respect the
// staleness bound however updates arrive — the pre-jump refresh
// included — and drop no connections.
func TestLiveStaleWeightingSkipCompressionMatrix(t *testing.T) {
	const s = 2
	comps := []string{"none", "topk:0.5"}
	for _, skip := range []bool{false, true} {
		for _, cs := range comps {
			skip, cs := skip, cs
			t.Run(fmt.Sprintf("linear-skip=%v-%s", skip, cs), func(t *testing.T) {
				t.Parallel()
				comp, err := compress.ParseSpec(cs)
				if err != nil {
					t.Fatal(err)
				}
				// 64-dim replicas so the sparse codec's realized
				// wire ratio is not swamped by frame overhead.
				const dim = 64
				start := func(i int) model.Trainer {
					x0 := make([]float64, dim)
					target := make([]float64, dim)
					for d := range x0 {
						x0[d] = float64(i%3) + 0.5
						target[d] = float64(d%5) / 5
					}
					return model.NewQuadratic(x0, target, 0.2, 0.02)
				}
				g := graph.Ring(4)
				workers := launch(t, g, func(i int) WorkerConfig {
					cfg := WorkerConfig{
						Config: core.Config{
							Staleness:   s,
							MaxIG:       6,
							Compression: comp,
							MaxIter:     30,
							Seed:        int64(23 + i),
						},
						Trainer: start(i),
						Logger:  NopLogger(),
					}
					if skip {
						cfg.MaxJump = 4
						if i == 0 {
							cfg.ComputeDelay = func(int) time.Duration { return 4 * time.Millisecond }
							cfg.Trace = core.NewTrace()
						}
					}
					return cfg
				})
				for i, w := range workers {
					if loss := w.Trainer().EvalLoss(); loss > 0.5 {
						t.Errorf("worker %d loss %g", i, loss)
					}
					if got := w.MaxObservedStaleness(); got > s {
						t.Errorf("worker %d aggregated an update %d iterations old, bound %d", i, got, s)
					}
					st := w.WireStats()
					if st.ReadErrors != 0 {
						t.Errorf("worker %d: %d inbound connections dropped", i, st.ReadErrors)
					}
					if comp.Kind == compress.TopK && st.CompressionRatio() < 1.5 {
						t.Errorf("worker %d: topk:0.5 realized only %.2fx on the wire", i, st.CompressionRatio())
					}
				}
				if skip {
					j := 0
					for _, e := range workers[0].Trace().Events() {
						if e.Kind == core.TraceJump {
							j++
						}
					}
					stats := workers[0].Stats()
					if stats.Jumps != j {
						t.Errorf("straggler protocol stats report %d jumps, its trace %d", stats.Jumps, j)
					}
					if j == 0 {
						t.Log("straggler never jumped (timing-dependent); acceptable but unusual")
					}
				}
			})
		}
	}
}

// TestLiveAbortUnblocksWorkers: when one worker dies mid-run (its
// transport fails), its neighbors block in Recv with nothing to wake
// them; Abort must unwind their loops with core.ErrAborted instead of
// leaving them hung — the mechanism RunCluster uses so a single
// worker failure surfaces as an error, not a deadlock. Every goroutine
// the cluster started is gone once the workers are closed.
func TestLiveAbortUnblocksWorkers(t *testing.T) {
	defer leaktest.Check(t, 0)()
	g := graph.Ring(3)
	n := g.N()
	workers := make([]*Worker, n)
	addrs := map[int]string{}
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Config: core.Config{
				Graph:   g,
				MaxIter: 1 << 20, // far beyond what this test lets run
				Seed:    31,
			},
			ID: i, ListenAddr: "127.0.0.1:0",
			Trainer: quadStart(i), Logger: NopLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	for i, w := range workers {
		if err := w.Connect(addrs, 5*time.Second); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			_, errs[i] = w.Run()
		}(i, w)
	}
	time.Sleep(50 * time.Millisecond)
	workers[2].Close() // kill worker 2's transport mid-run
	time.Sleep(50 * time.Millisecond)
	for _, w := range workers {
		w.Abort() // what RunCluster does on the first worker failure
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster did not unwind after Abort")
	}
	// Nobody can have completed 1<<20 iterations: every worker must
	// report either its own transport failure or the abort.
	for i, err := range errs {
		if err == nil {
			t.Errorf("worker %d returned no error", i)
		}
	}
}

// TestLiveAbortBeforeRun: aborting an idle worker makes a later Run
// return immediately, and leaves no goroutine behind once closed.
func TestLiveAbortBeforeRun(t *testing.T) {
	defer leaktest.Check(t, 0)()
	g := graph.Ring(3)
	w, err := NewWorker(WorkerConfig{
		Config: core.Config{
			Graph: g, MaxIter: 100,
			Seed: 32,
		},
		ID: 0, ListenAddr: "127.0.0.1:0",
		Trainer: quadStart(0), Logger: NopLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Abort()
	if _, err := w.Run(); !errors.Is(err, core.ErrAborted) {
		t.Errorf("err %v, want core.ErrAborted", err)
	}
}
