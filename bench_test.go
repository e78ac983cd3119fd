package hop_test

// One benchmark per paper table/figure — each regenerates the
// experiment end to end on the deterministic simulator (run with
// -benchtime=1x; a single iteration is a complete reproduction) —
// plus microbenchmarks of the protocol hot paths.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"hop"
	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/data"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/live"
	"hop/internal/model"
	"hop/internal/opt"
	"hop/internal/sim"
	"hop/internal/tensor"
	"hop/internal/transport"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := hop.RunExperiment(id, hop.ScaleQuick, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFig12 regenerates Figure 12 (effect of heterogeneity across
// ring / ring-based / double-ring, CNN + SVM).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (decentralized vs BSP parameter
// server).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (backup workers, loss vs time).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (backup workers, loss vs steps).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16 (iteration speedup of backup
// workers under 6x random slowdown).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17 (bounded staleness vs backup
// workers vs standard).
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18 regenerates Figure 18 (skipping iterations: iteration
// time with a 4x-deterministic straggler).
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkFig19 regenerates Figure 19 (skipping iterations: loss vs
// time, jump<=2 and jump<=10).
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19") }

// BenchmarkFig20 regenerates Figure 20 (topology settings 1-3 under a
// heterogeneous placement).
func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20") }

// BenchmarkFig21 regenerates Figure 21 (spectral gaps of the three
// settings).
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig21") }

// BenchmarkTable1 regenerates Table 1 (iteration-gap bounds, observed
// vs theoretical, across all synchronization settings).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkDeadlockDemo regenerates the §5 AD-PSGD deadlock
// demonstration.
func BenchmarkDeadlockDemo(b *testing.B) { benchExperiment(b, "deadlock") }

// --- Protocol hot-path microbenchmarks --------------------------------

func BenchmarkUpdateQueueEnqueueDequeue(b *testing.B) {
	q := core.NewUpdateQueue(core.NewSyncMonitor(), 5)
	params := make([]float64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := i % 4
		for s := 0; s < 4; s++ {
			q.Enqueue(core.Update{Params: params, Iter: iter, From: s})
		}
		q.DequeueIterAtLeast(4, iter)
	}
}

func BenchmarkTokenQueuePutTake(b *testing.B) {
	tq := core.NewTokenQueue(core.NewSyncMonitor(), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq.Put(1)
		tq.Take(1)
	}
}

func BenchmarkSimContextSwitch(b *testing.B) {
	// Two procs ping-pong through a cond for b.N rounds.
	k := sim.NewKernel()
	c := sim.NewCond(k)
	turn := 0
	rounds := b.N
	for p := 0; p < 2; p++ {
		p := p
		k.Spawn("pp", func(proc *sim.Proc) {
			for i := 0; i < rounds; i++ {
				for turn != p {
					c.Wait()
				}
				turn = 1 - p
				c.Broadcast()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCNNLossGrad is one replica's gradient step on its own.
func BenchmarkCNNLossGrad(b *testing.B) {
	c := model.NewCNN(model.DefaultCNNConfig())
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ComputeGrad(rng)
	}
}

// BenchmarkCNNLossGradClones16 is the same step taken round-robin by 16
// clones of one trainer, each with its own rng: sim-cnn-hetero16's
// replicas on one core, each step starting where another replica's
// left the cache.
func BenchmarkCNNLossGradClones16(b *testing.B) {
	base := model.NewCNN(model.DefaultCNNConfig())
	clones := make([]model.Trainer, 16)
	rngs := make([]*rand.Rand, len(clones))
	for i := range clones {
		clones[i] = base.Clone()
		rngs[i] = rand.New(rand.NewSource(int64(i) + 1))
		clones[i].ComputeGrad(rngs[i]) // warm-up: grow the batch buffer and scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(clones)
		clones[w].ComputeGrad(rngs[w])
	}
}

// BenchmarkCNNEvalLoss is MiniVGG's forward pass at the eval batch
// (128 samples, streamed through one workspace 16 at a time): the
// held-out loss cluster.Run evaluates inline on the scheduling plane.
func BenchmarkCNNEvalLoss(b *testing.B) {
	c := model.NewCNN(model.DefaultCNNConfig())
	c.EvalLoss() // grow the layers' scratch to the eval chunk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EvalLoss()
	}
}

// BenchmarkSimCNNHetero16 is the committed end-to-end CNN workload of
// BENCHMARK.json (16 workers, 6× random stragglers, 300 iterations)
// run through the scenario engine, as width=1|2|4 sub-benchmarks of the
// compute plane: sixteen replicas' steps to overlap. Widths above the
// machine's core count are recorded all the same: they show what
// over-subscription costs (BENCH.md).
func BenchmarkSimCNNHetero16(b *testing.B) {
	data, err := os.ReadFile("benchmark/workloads/sim-cnn-hetero16.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := hop.ParseScenario(data)
	if err != nil {
		b.Fatal(err)
	}
	defer hop.SetComputeWorkers(0)
	for _, w := range []int{1, 2, 4} {
		hop.SetComputeWorkers(w)
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := hop.RunScenario(spec)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Metrics.Iterations()
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

func BenchmarkSVMLossGrad(b *testing.B) {
	s := model.NewSVM(model.DefaultSVMConfig())
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeGrad(rng)
	}
}

// BenchmarkSGDStep measures the optimizer update at the SVM workload's
// size and hyper-parameters: every live iteration ends with one.
func BenchmarkSGDStep(b *testing.B) {
	cfg := model.DefaultSVMConfig()
	s := opt.NewSGD(cfg.Features, cfg.LR, cfg.Momentum, cfg.Decay)
	params, grads := make([]float64, cfg.Features), make([]float64, cfg.Features)
	rng := rand.New(rand.NewSource(1))
	for i := range grads {
		grads[i] = rng.NormFloat64() * 1e-3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(params, grads)
	}
}

func BenchmarkSpectralGap16(b *testing.B) {
	w := graph.RingBased(16).UniformWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.SpectralGap(w)
	}
}

// BenchmarkWebspamSample measures the SVM workload's mini-batch draw
// at its default shape (32 samples of 24 active features out of 4096):
// on the live plane it is the largest line of a worker's iteration that
// is not the wire's (DESIGN.md §9.4).
func BenchmarkWebspamSample(b *testing.B) {
	d := data.NewWebspam(4096, 24, 0.05, 2)
	rng := rand.New(rand.NewSource(1))
	var batch data.SpamBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SampleInto(&batch, rng, 32)
	}
}

// BenchmarkTensorMean measures the Reduce at the shapes the workloads
// issue: a ring worker's own parameters and its two neighbours' at the
// SVM's 4096 (the live ring), and three or four vectors of the CNN's
// 5812 parameters. Recorded in BENCH_live.json beside SGDStep.
func BenchmarkTensorMean(b *testing.B) {
	for _, s := range []struct{ count, n int }{{3, 4096}, {3, 5812}, {4, 5812}} {
		b.Run(fmt.Sprintf("%dx%d", s.count, s.n), func(b *testing.B) {
			vecs := make([][]float64, s.count)
			for i := range vecs {
				vecs[i] = wireParams(s.n)
			}
			dst := make([]float64, s.n)
			b.SetBytes(int64(8 * s.n * (s.count + 1)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Mean(dst, vecs)
			}
		})
	}
}

// --- GEMM microbenchmarks (the compute-plane trajectory) --------------
//
// The shapes are the ones the CNN workload actually issues (see
// BENCH.md): conv1/conv2 are the per-sample im2col products of the
// MiniVGG stand-in, dense the batched fully-connected products, and
// "large" a paper-scale panel that exercises the cache blocking. All
// report allocations: the acceptance bar is zero allocs/op in steady
// state. scripts/bench.sh runs these and records the results in
// BENCH_gemm.json.

func benchGemm(b *testing.B, kind string, m, k, n int) {
	rng := rand.New(rand.NewSource(3))
	dimA, dimB := m*k, k*n
	if kind == "atb" {
		dimA = k * m
	}
	if kind == "abt" {
		dimB = n * k
	}
	a := make([]float64, dimA)
	bb := make([]float64, dimB)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	b.SetBytes(int64(8 * (dimA + dimB + m*n)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch kind {
		case "ab":
			tensor.MatMul(c, a, bb, m, k, n)
		case "atb":
			tensor.MatMulATB(c, a, bb, k, m, n)
		case "abt":
			tensor.MatMulABT(c, a, bb, m, k, n)
		}
	}
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// Conv1 of the MiniVGG CNN: weights(8×27) · im2col(27×64), per sample.
func BenchmarkGemmConv1(b *testing.B) { benchGemm(b, "ab", 8, 27, 64) }

// Conv2: weights(16×72) · im2col(72×16), per sample.
func BenchmarkGemmConv2(b *testing.B) { benchGemm(b, "ab", 16, 72, 16) }

// Dense forward: batch(16×64) · weightsᵀ(64×64).
func BenchmarkGemmDense(b *testing.B) { benchGemm(b, "abt", 16, 64, 64) }

// Dense weight gradient: dYᵀ(64×16) · X(16×64) over the batch.
func BenchmarkGemmDenseGradATB(b *testing.B) { benchGemm(b, "atb", 64, 16, 64) }

// Conv1 weight gradient, transposed: im2col(27×64) · dOutᵀ(64×8), per
// sample; 27 rows, so three run the one-row tile.
func BenchmarkGemmConv1GradWT(b *testing.B) { benchGemm(b, "ab", 27, 64, 8) }

// Conv2 weight gradient, transposed: im2col(72×16) · dOutᵀ(16×16).
func BenchmarkGemmConv2GradWT(b *testing.B) { benchGemm(b, "ab", 72, 16, 16) }

// Conv2 input gradient: Wᵀ(72×16) · dOut(16×16), per sample.
func BenchmarkGemmConv2GradX(b *testing.B) { benchGemm(b, "atb", 72, 16, 16) }

// Paper-scale panel: a 128×1152×256 product (VGG-sized im2col block)
// that no model issues, large enough to exercise the k and n cache
// blocking.
func BenchmarkGemmLarge(b *testing.B) { benchGemm(b, "ab", 128, 1152, 256) }

// --- Wire codec & compression benchmarks -----------------------------

// gobUpdateBytes measures the retired wire format: one gob-encoded
// message per update, the per-message baseline the binary codec
// replaced (gob re-sends type metadata because each message got a
// fresh encoder on the old per-connection stream only once; we charge
// it the steady-state stream cost here, which is the generous
// comparison).
func gobUpdateBytes(params []float64) int {
	type gobMessage struct {
		Kind   uint8
		From   int
		Iter   int
		Count  int
		Params []float64
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	// Steady state: type metadata already on the stream.
	if err := enc.Encode(gobMessage{Params: params}); err != nil {
		panic(err)
	}
	buf.Reset()
	if err := enc.Encode(gobMessage{Kind: 0, From: 3, Iter: 17, Params: params}); err != nil {
		panic(err)
	}
	return buf.Len()
}

func wireParams(n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	params := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	return params
}

// benchCompressor reports bytes per update for one codec against the
// gob baseline.
func benchCompressor(b *testing.B, spec string) {
	sp, err := hop.ParseCompression(spec)
	if err != nil {
		b.Fatal(err)
	}
	comp := sp.New()
	params := wireParams(1 << 16)
	gobBytes := gobUpdateBytes(params)
	var wire int64
	// Before the timer the set-up's garbage (the gob baseline) is
	// collected and the retained buffer grown. Steady state is 0 B/op;
	// allocs/op is gated by CI.
	runtime.GC()
	dst := comp.Compress(nil, params)
	if c, ok := comp.(*compress.DeltaEncoder); ok {
		// TopK is a delta stream: with its dense warm start committed,
		// every timed frame is a sparse delta against it (never
		// committed, so each op encodes the same one).
		c.Commit()
		dst = comp.Compress(dst[:0], params)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = comp.Compress(dst[:0], params)
		wire += int64(len(dst))
	}
	b.StopTimer()
	b.SetBytes(int64(8 * len(params)))
	perUpdate := float64(wire) / float64(b.N)
	b.ReportMetric(perUpdate, "wireB/update")
	b.ReportMetric(float64(gobBytes), "gobB/update")
	b.ReportMetric(float64(gobBytes)/perUpdate, "x-vs-gob")
}

func BenchmarkWireCompressNone(b *testing.B)    { benchCompressor(b, "none") }
func BenchmarkWireCompressFloat32(b *testing.B) { benchCompressor(b, "float32") }
func BenchmarkWireCompressTopK10(b *testing.B)  { benchCompressor(b, "topk:0.1") }

// BenchmarkWireDecode measures the receive path of a TopK update: a
// DeltaDecoder folding one sparse frame into its replica and copying
// out the dense vector.
func BenchmarkWireDecode(b *testing.B) { benchDecode(b, "topk:0.1", 1<<16) }

// BenchmarkWireDecodeNone is the same for the uncompressed payload of
// the live SVM workload's 4096 parameters.
func BenchmarkWireDecodeNone(b *testing.B) { benchDecode(b, "none", 4096) }

func benchDecode(b *testing.B, spec string, n int) {
	sp, _ := hop.ParseCompression(spec)
	comp := sp.New()
	params := wireParams(n)
	payload := comp.Compress(nil, params)
	decode := func(dst []float64) ([]float64, error) { return compress.DecodeInto(dst, comp.Kind(), payload) }
	if c, ok := comp.(*compress.DeltaEncoder); ok {
		// A TopK frame is a delta: the decoder takes the dense warm
		// start, then the timed op folds one sparse frame.
		c.Commit()
		var dec compress.DeltaDecoder
		if _, err := dec.Decode(payload); err != nil {
			b.Fatal(err)
		}
		payload = comp.Compress(nil, params)
		decode = func(dst []float64) ([]float64, error) { return dec.DecodeInto(dst, payload) }
	}
	// The retained buffer is warmed before the timer: steady state is
	// 0 allocs/op, gated by CI.
	out, err := decode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = decode(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaEncode measures the TopK delta-stream sender hot path:
// residual computation, radix-select sparsification and staging, plus
// the replica commit — one neighbor's worth of work per iteration. It
// moves one coordinate per op, so once the warm start's rounding error
// has been sent the residual is zero everywhere else: every frame ties
// at a threshold of zero and refills. That is the encoder's worst
// case, not a stream SGD produces (BenchmarkTopKStreamEncode is); the
// body stays as it is so the recorded trajectory stays comparable.
func BenchmarkDeltaEncode(b *testing.B) {
	enc := compress.NewDeltaEncoder(0.1)
	params := wireParams(1 << 16)
	var dst []byte
	dst = enc.Compress(dst[:0], params)
	enc.Commit() // warm start: subsequent frames are true sparse deltas
	dst = enc.Compress(dst[:0], params)
	enc.Commit() // one sparse frame sizes the encoder's selection scratch
	b.SetBytes(int64(8 * len(params)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params[i&0xffff] += 1e-3 // keep the delta stream non-degenerate
		dst = enc.Compress(dst[:0], params)
		enc.Commit()
	}
}

// BenchmarkTopKStreamEncode is the delta-stream sender on a stream
// shaped like training: every coordinate drifts on every op (a
// rotating window of one noise table, so the walk costs an add per
// coordinate and is inside the timed op), then encode and commit. The
// width axis is there because the encode must not depend on it: it
// runs on the sender's goroutine whatever the pool offers. Recorded in
// BENCH_live.json, whose host has the two CPUs width=2 needs.
func BenchmarkTopKStreamEncode(b *testing.B) {
	defer hop.SetComputeWorkers(0)
	for _, n := range []int{4096, 65536} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/width=%d", n, w), func(b *testing.B) {
				hop.SetComputeWorkers(w)
				enc := compress.NewDeltaEncoder(0.1)
				noise := wireParams(n)
				params := make([]float64, n)
				var dst []byte
				off := 0
				step := func() {
					off = (off + 1237) % n
					for i, v := range noise[off:] {
						params[i] += v
					}
					for i, v := range noise[:off] {
						params[n-off+i] += v
					}
					dst = enc.Compress(dst[:0], params)
					enc.Commit()
				}
				for i := 0; i < 50; i++ {
					step() // past the dense warm start, threshold settled
				}
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// BenchmarkDeltaFold measures the receiver half: folding one sparse
// delta frame into the connection replica and materializing the dense
// reconstruction.
func BenchmarkDeltaFold(b *testing.B) {
	enc := compress.NewDeltaEncoder(0.1)
	params := wireParams(1 << 16)
	warm := enc.Compress(nil, params)
	enc.Commit()
	params[17] += 1e-3
	frame := enc.Compress(nil, params)
	var dec compress.DeltaDecoder
	if _, err := dec.Decode(warm); err != nil {
		b.Fatal(err)
	}
	// The retained buffer is warmed before the timer: steady state is
	// 0 allocs/op, gated by CI.
	out, err := dec.DecodeInto(nil, frame)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(params)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = dec.DecodeInto(out, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireCompressionBeatsGob pins the ISSUE acceptance criterion:
// float32 values + top-10% sparsification must cut bytes per update at
// least 4x versus the gob baseline, measured on a sparse delta frame
// (the stream's dense warm start committed).
func TestWireCompressionBeatsGob(t *testing.T) {
	params := wireParams(1 << 16)
	gobBytes := gobUpdateBytes(params)
	sp, err := hop.ParseCompression("topk:0.1")
	if err != nil {
		t.Fatal(err)
	}
	enc := sp.New()
	enc.Compress(nil, params)
	enc.(*compress.DeltaEncoder).Commit()
	if ratio := float64(gobBytes) / float64(len(enc.Compress(nil, params))); ratio < 4 {
		t.Fatalf("float32+topk(10%%) only %.2fx smaller than gob (want >=4x)", ratio)
	} else {
		t.Logf("float32+topk(10%%): %.1fx fewer bytes per update than gob", ratio)
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ----

// ablationRun executes one 16-worker CNN-profile run under 6x random
// slowdown and reports mean virtual iteration milliseconds and final
// loss as benchmark metrics.
func ablationRun(b *testing.B, mutate func(*hop.Config)) {
	b.Helper()
	var meanMS, loss float64
	for i := 0; i < b.N; i++ {
		g := graph.RingBased(16)
		graph.EvenPlacement(g, 4)
		cfg := hop.Config{Graph: g, Seed: 31}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := hop.Run(hop.Options{
			Core:         cfg,
			Trainer:      hop.NewSVM(hop.DefaultSVMConfig()),
			Compute:      hetero.Compute{Base: 100 * time.Millisecond, Slow: hop.RandomSlowdown(6, 1.0/16)},
			PayloadBytes: 1400 << 10,
			Deadline:     30 * time.Second,
			Seed:         32,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlock != nil {
			b.Fatal(res.Deadlock)
		}
		meanMS = float64(res.Metrics.MeanIterDurationAll(2)) / 1e6
		loss = res.Metrics.Eval.Last(-1)
	}
	b.ReportMetric(meanMS, "virtms/iter")
	b.ReportMetric(loss, "final-loss")
}

// BenchmarkAblationSerial vs BenchmarkAblationParallel: the §3.2
// computation-graph trade-off.
func BenchmarkAblationSerial(b *testing.B) {
	ablationRun(b, func(c *hop.Config) { c.Serial = true })
}

func BenchmarkAblationParallel(b *testing.B) { ablationRun(b, nil) }

// BenchmarkAblationNotifyAck: the §3.3 baseline's cost under random
// slowdown.
func BenchmarkAblationNotifyAck(b *testing.B) {
	ablationRun(b, func(c *hop.Config) { c.Mode = hop.ModeNotifyAck })
}

// BenchmarkAblationTokens / Backup / SendCheckOff: the §4.2-§4.3 and
// §6.2(b) mechanisms in isolation.
func BenchmarkAblationTokens(b *testing.B) {
	ablationRun(b, func(c *hop.Config) { c.MaxIG = 4 })
}

func BenchmarkAblationBackup(b *testing.B) {
	ablationRun(b, func(c *hop.Config) { c.MaxIG = 4; c.Backup = 1; c.SendCheck = true })
}

func BenchmarkAblationBackupNoSendCheck(b *testing.B) {
	ablationRun(b, func(c *hop.Config) { c.MaxIG = 4; c.Backup = 1 })
}

// BenchmarkAblationStaleness: bounded staleness with the §4.4 Eq. 2
// aggregation.
func BenchmarkAblationStaleness(b *testing.B) {
	ablationRun(b, func(c *hop.Config) { c.MaxIG = 8; c.Staleness = 5 })
}

// BenchmarkClusterIteration measures simulator throughput: virtual
// iterations executed per second of host time on a 16-worker cluster.
func BenchmarkClusterIteration(b *testing.B) {
	g := graph.RingBased(16)
	graph.EvenPlacement(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hop.Run(hop.Options{
			Core:         hop.Config{Graph: g, MaxIter: 20, Seed: 1},
			Trainer:      model.NewQuadratic(make([]float64, 64), make([]float64, 64), 0.1, 0),
			Compute:      hetero.Compute{Base: 100 * time.Millisecond},
			PayloadBytes: 1 << 20,
			Seed:         2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Iterations() != 320 {
			b.Fatalf("iterations %d", res.Metrics.Iterations())
		}
	}
}

// --- Live loopback benchmarks -------------------------------------------
//
// One op = one complete live loopback TCP cluster run of a fixed
// scenario spec (4-worker ring, SVM workload, token queues + backup) —
// the real-wire counterpart of BenchmarkClusterIteration. Custom
// metrics report protocol throughput (updates/s across the cluster)
// and the realized wire cost per update; scripts/bench.sh folds them
// into BENCH_live.json next to BENCH_gemm.json.

func benchLiveLoopback(b *testing.B, compression string) {
	spec := hop.Scenario{
		Workload:    "svm",
		Topology:    hop.ScenarioTopology{Kind: "ring", Workers: 4, Machines: 1},
		Protocol:    hop.ScenarioProtocol{MaxIG: 3, Backup: 1, SendCheck: true},
		Compression: compression,
		MaxIter:     30,
		Seed:        17,
	}
	var updates, wireBytes, rawBytes int64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hop.RunScenarioLive(spec, hop.ScenarioLiveOptions{Logger: live.NopLogger()})
		if err != nil {
			b.Fatal(err)
		}
		ws := res.WireStats()
		if ws.ReadErrors != 0 {
			b.Fatalf("%d inbound connections dropped", ws.ReadErrors)
		}
		updates += ws.UpdatesSent
		wireBytes += ws.WireUpdateBytesSent
		rawBytes += ws.RawUpdateBytesSent
		elapsed += res.Duration
	}
	if updates == 0 || elapsed == 0 {
		b.Fatal("no updates flowed")
	}
	b.ReportMetric(float64(updates)/elapsed.Seconds(), "updates/s")
	b.ReportMetric(float64(wireBytes)/float64(updates), "wireB/update")
	b.ReportMetric(float64(rawBytes)/float64(wireBytes), "xcomp")
}

// BenchmarkTransportTokenThenUpdate measures the protocol's per-
// neighbour wire pattern in isolation: a token grant followed at once
// by a 32 KiB uncompressed update to the same peer, timed until the
// peer's handler has the update. writes/op is the sender's socket
// writes per pair: 2 when every frame pays its own syscall, 1 when the
// token rides the update's write.
func BenchmarkTransportTokenThenUpdate(b *testing.B) {
	got := make(chan struct{}, 1)
	rx, err := transport.Listen(1, "127.0.0.1:0", func(m transport.Message) {
		if m.Kind == transport.KindUpdate {
			tensor.PutVec(m.Params)
			got <- struct{}{}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	tx, err := transport.Listen(0, "127.0.0.1:0", func(transport.Message) {})
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Dial(1, rx.Addr(), 5*time.Second); err != nil {
		b.Fatal(err)
	}
	params := wireParams(4096)
	exchange := func(iter int) {
		if err := tx.Send(1, transport.Message{Kind: transport.KindToken, Iter: iter}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Send(1, transport.Message{Kind: transport.KindUpdate, Iter: iter, Params: params}); err != nil {
			b.Fatal(err)
		}
		<-got
	}
	exchange(0) // warm the pools and the socket buffers
	before := tx.Stats().Writes
	b.SetBytes(int64(8 * len(params)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		exchange(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(tx.Stats().Writes-before)/float64(b.N), "writes/op")
}

// BenchmarkLiveLoopbackNone measures the lossless baseline.
func BenchmarkLiveLoopbackNone(b *testing.B) { benchLiveLoopback(b, "none") }

// BenchmarkLiveLoopbackFloat32 measures the 2x truncating codec.
func BenchmarkLiveLoopbackFloat32(b *testing.B) { benchLiveLoopback(b, "float32") }

// BenchmarkLiveLoopbackTopK10 measures the sparse delta-stream codec
// at its headline topk:0.1 operating point.
func BenchmarkLiveLoopbackTopK10(b *testing.B) { benchLiveLoopback(b, "topk:0.1") }
