package main

// Isolated unit costs: each layer's public functions timed on their
// own, at the shapes the workload gives them (parameter length,
// in-degree, worker count, placement, codec). They are the "unit cost"
// column of the per-iteration budget: count × unit cost, summed over
// layers, is how much of a run's wall clock the outside-in model
// explains (budget.coverage_pct).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hop"
	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/netsim"
	"hop/internal/sim"
	"hop/internal/tensor"
	"hop/internal/transport"
)

// Pace sets how long the isolated timings run: the median of Batches
// batches of at least Batch each.
type Pace struct {
	Batch   time.Duration
	Batches int
}

var (
	// paceFull is the suite's pace.
	paceFull = Pace{Batch: 200 * time.Millisecond, Batches: 7}
	// paceShort fits every layer of one workload into a driver run.
	paceShort = Pace{Batch: 30 * time.Millisecond, Batches: 5}
)

// perOp returns the median over batches of the seconds one call of op
// takes. Each batch repeats op until the batch duration has passed;
// the repeat count is calibrated once.
func (p Pace) perOp(op func()) float64 {
	op() // warm caches, pools and lazily-sized buffers
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(t0); d >= p.Batch/4 || n >= 1<<24 {
			if d > 0 {
				n = int(float64(n)*float64(p.Batch)/float64(d)) + 1
			}
			break
		}
		n *= 4
	}
	samples := make([]float64, p.Batches)
	for b := range samples {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		samples[b] = time.Since(t0).Seconds() / float64(n)
	}
	sort.Float64s(samples)
	return quantile(samples, 2)
}

// shapes is what a workload's spec fixes for its layers.
type shapes struct {
	spec     hop.Scenario
	opts     hop.Options
	params   int // parameter-vector length
	inDegree int // worker 0's in-neighbours, self excluded
	workers  int
}

func shapesOf(w Workload, seed int64) (shapes, error) {
	spec, err := w.Spec(seed)
	if err != nil {
		return shapes{}, err
	}
	opts, err := spec.Resolve()
	if err != nil {
		return shapes{}, err
	}
	g := opts.Core.Graph
	return shapes{
		spec:     spec,
		opts:     opts,
		params:   len(opts.Trainer.Params()),
		inDegree: len(g.In(0)),
		workers:  g.N(),
	}, nil
}

// The five GEMM shapes the CNN workload issues (bench_test.go,
// BENCH.md): conv1, conv2, dense forward, dense weight gradient, conv
// weight gradient.
var cnnGemms = []struct {
	kind    string
	m, k, n int
}{
	{"ab", 8, 27, 64},
	{"ab", 16, 72, 16},
	{"abt", 16, 64, 64},
	{"atb", 64, 16, 64},
	{"abt", 8, 64, 27},
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// isolatedCosts times the layers workload w exercises and returns the
// metrics by name. Layers the workload does not reach are left out.
func isolatedCosts(w Workload, seed int64, p Pace) (map[string]float64, error) {
	sh, err := shapesOf(w, seed)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))

	// model: one replica's plain SGD step, the single-worker baseline.
	t := sh.opts.Trainer.Clone()
	step := func() {
		g, _ := t.ComputeGrad(rng)
		t.Apply(g)
	}
	out["model.step_us"] = p.perOp(step) * 1e6

	// tensor: the reduce at the workload's fan-in, the pool's width
	// axis, and (for the CNN) the GEMM shapes it issues.
	vecs := make([][]float64, sh.inDegree+1)
	for i := range vecs {
		vecs[i] = randVec(rng, sh.params)
	}
	dst := make([]float64, sh.params)
	out["tensor.mean_us"] = p.perOp(func() { tensor.Mean(dst, vecs) }) * 1e6

	grad := func() { t.ComputeGrad(rng) }
	width := tensor.Workers()
	wide := p.perOp(grad)
	tensor.SetWorkers(1)
	narrow := p.perOp(grad)
	tensor.SetWorkers(width)
	out["tensor.pool_speedup"] = narrow / wide

	if sh.spec.Workload == "cnn" {
		var flops, secs float64
		for _, s := range cnnGemms {
			a, b, c := randVec(rng, s.m*s.k), randVec(rng, s.k*s.n), make([]float64, s.m*s.n)
			s := s
			secs += p.perOp(func() {
				switch s.kind {
				case "ab":
					tensor.MatMul(c, a, b, s.m, s.k, s.n)
				case "atb":
					tensor.MatMulATB(c, a, b, s.k, s.m, s.n)
				case "abt":
					tensor.MatMulABT(c, a, b, s.m, s.k, s.n)
				}
			})
			flops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
		}
		out["tensor.gemm_gflops"] = flops / secs / 1e9
	}

	// core: the queue, token and gap-tracker operations of one
	// iteration.
	mon := core.NewSyncMonitor()
	q := core.NewUpdateQueue(mon, 5)
	qi := 0
	out["core.queue_op_ns"] = p.perOp(func() {
		iter := qi % 4
		qi++
		for s := 0; s <= sh.inDegree; s++ {
			q.Enqueue(core.Update{Params: dst, Iter: iter, From: s})
		}
		q.DequeueIterAtLeast(sh.inDegree+1, iter)
	}) * 1e9
	tq := core.NewTokenQueue(mon, 4)
	out["core.token_op_ns"] = p.perOp(func() { tq.Put(1); tq.Take(1) }) * 1e9
	g := sh.opts.Core.Graph
	gt := core.NewGapTrackerFor(mon, g)
	gw, gi := 0, 0
	out["core.gap_advance_ns"] = p.perOp(func() {
		gt.Advance(gw, gi)
		if gw++; gw == sh.workers {
			gw, gi = 0, gi+1
		}
	}) * 1e9

	out["graph.build_us"] = p.perOp(func() {
		bg, err := sh.spec.Topology.BuildSeeded(sh.spec.Seed)
		if err != nil {
			panic(err) // the spec resolved above
		}
		bg.Diameter()
	}) * 1e6
	specJSON, err := sh.spec.JSON()
	if err != nil {
		return nil, err
	}
	out["scenario.resolve_us"] = p.perOp(func() {
		s, err := hop.ParseScenario(specJSON)
		if err == nil {
			_, err = s.Resolve()
		}
		if err != nil {
			panic(err) // the spec resolved above
		}
	}) * 1e6

	if w.Live {
		if err := liveCosts(out, sh, w, p, rng); err != nil {
			return nil, err
		}
	} else {
		simCosts(out, sh, p)
	}
	return out, nil
}

// simCosts times the simulator-only layers: a kernel context switch
// and one cross-machine fabric delivery.
func simCosts(out map[string]float64, sh shapes, p Pace) {
	// Two procs ping-pong on a cond (BenchmarkSimContextSwitch); a
	// kernel runs once, so one timed operation is a whole kernel's
	// worth of switches.
	const rounds = 20000
	out["sim.switch_ns"] = p.perOp(func() {
		k := sim.NewKernel()
		c := sim.NewCond(k)
		turn := 0
		for id := 0; id < 2; id++ {
			id := id
			k.Spawn("pp", func(*sim.Proc) {
				for i := 0; i < rounds; i++ {
					for turn != id {
						c.Wait()
					}
					turn = 1 - id
					c.Broadcast()
				}
			})
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
	}) / (2 * rounds) * 1e9

	// One proc hands the fabric a run of cross-machine messages at the
	// spec's placement and payload; Kernel.Run drains them.
	g := sh.opts.Core.Graph
	src, dstW := 0, 0
	for j := 0; j < g.N(); j++ {
		if g.MachineOf(j) != g.MachineOf(0) {
			dstW = j
			break
		}
	}
	netCfg := sh.opts.Net
	if netCfg.IsZero() {
		netCfg = netsim.Default1GbE()
	}
	placement := make([]int, g.N())
	for i := range placement {
		placement[i] = g.MachineOf(i)
	}
	const msgs = 20000
	out["netsim.deliver_ns"] = p.perOp(func() {
		k := sim.NewKernel()
		f := netsim.New(k, netCfg, g.N(), placement)
		k.Spawn("sender", func(*sim.Proc) {
			for i := 0; i < msgs; i++ {
				f.Deliver(src, dstW, sh.opts.PayloadBytes, func() {})
			}
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
	}) / msgs * 1e9
}

// liveCosts times the TCP-plane layers: the spec's codec, one update
// across a loopback connection, and meshing the whole cluster.
func liveCosts(out map[string]float64, sh shapes, w Workload, p Pace, rng *rand.Rand) error {
	params := randVec(rng, sh.params)
	comp := sh.opts.Core.Compression
	var payload []byte
	var encode, decode func()
	if comp.Kind == compress.TopK {
		ratio := comp.Ratio
		if ratio == 0 {
			ratio = compress.DefaultTopKRatio
		}
		enc := compress.NewDeltaEncoder(ratio)
		var dec compress.DeltaDecoder
		warm := enc.Compress(nil, params)
		enc.Commit()
		if _, err := dec.Decode(warm); err != nil {
			return err
		}
		i := 0
		encode = func() {
			params[i%len(params)] += 1e-3 // keep the delta stream non-degenerate
			i++
			payload = enc.Compress(payload[:0], params)
			enc.Commit()
		}
		encode()
		frame := append([]byte(nil), payload...)
		var dense []float64
		decode = func() {
			var err error
			if dense, err = dec.DecodeInto(dense, frame); err != nil {
				panic(err)
			}
		}
	} else {
		c := comp.New()
		encode = func() { payload = c.Compress(payload[:0], params) }
		encode()
		frame := append([]byte(nil), payload...)
		var dense []float64
		decode = func() {
			var err error
			if dense, err = compress.DecodeInto(dense, c.Kind(), frame); err != nil {
				panic(err)
			}
		}
	}
	out["compress.encode_us"] = p.perOp(encode) * 1e6
	out["compress.decode_us"] = p.perOp(decode) * 1e6
	var before, after runtime.MemStats
	const allocRuns = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		encode()
	}
	runtime.ReadMemStats(&after)
	out["compress.encode_allocs"] = float64(after.Mallocs-before.Mallocs) / allocRuns

	// transport: one update of the parameter length from Send until the
	// peer's handler fires, over a loopback connection negotiated for
	// the spec's codec.
	got := make(chan struct{}, 1)
	recv, err := transport.ListenConfig(1, "127.0.0.1:0", func(m transport.Message) {
		if m.Kind == transport.KindUpdate {
			tensor.PutVec(m.Params)
			got <- struct{}{}
		}
	}, transport.Config{Compressor: comp.New()})
	if err != nil {
		return err
	}
	defer recv.Close()
	send, err := transport.ListenConfig(0, "127.0.0.1:0", func(transport.Message) {}, transport.Config{Compressor: comp.New()})
	if err != nil {
		return err
	}
	defer send.Close()
	if err := send.Dial(1, recv.Addr(), 5*time.Second); err != nil {
		return err
	}
	iter := 0
	var sendErr error
	oneway := p.perOp(func() {
		params[iter%len(params)] += 1e-3
		if err := send.Send(1, transport.Message{Kind: transport.KindUpdate, Iter: iter, Params: params}); err != nil && sendErr == nil {
			sendErr = err
			return
		}
		iter++
		<-got
	})
	if sendErr != nil {
		return fmt.Errorf("transport send: %w", sendErr)
	}
	st := send.Stats()
	out["transport.update_oneway_us"] = oneway * 1e6
	out["transport.update_mb_per_s"] = float64(st.BytesSent) / float64(st.UpdatesSent) / oneway / 1e6

	// live: bind and mesh the whole cluster (NewLiveWorker + Connect),
	// no Run. Every mesh leaves its connections in TIME_WAIT for a
	// minute, so this one is paced down to spare the ephemeral ports.
	var meshErr error
	mesh := Pace{Batch: p.Batch / 4, Batches: p.Batches}.perOp(func() {
		if err := meshOnce(sh.spec, w); err != nil && meshErr == nil {
			meshErr = err
		}
	})
	if meshErr != nil {
		return fmt.Errorf("mesh: %w", meshErr)
	}
	out["live.mesh_ms"] = mesh * 1e3
	return nil
}

// meshOnce builds every worker of the spec's cluster, dials the mesh
// and tears it down again.
func meshOnce(spec hop.Scenario, w Workload) error {
	cfgs, err := hop.ResolveScenarioLive(spec, hop.ScenarioLiveOptions{TimeScale: w.TimeScale, Logger: quiet{}})
	if err != nil {
		return err
	}
	workers := make([]*hop.LiveWorker, 0, len(cfgs))
	defer func() {
		for _, lw := range workers {
			lw.Close()
		}
	}()
	addrs := make(map[int]string, len(cfgs))
	for i, cfg := range cfgs {
		lw, err := hop.NewLiveWorker(cfg)
		if err != nil {
			return err
		}
		workers = append(workers, lw)
		addrs[i] = lw.Addr()
	}
	for _, lw := range workers {
		if err := lw.Connect(addrs, 5*time.Second); err != nil {
			return err
		}
	}
	return nil
}
