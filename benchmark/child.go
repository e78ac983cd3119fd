package main

// One run of one workload, in this process. The harness re-executes its
// own binary for every timed repetition (runChild in harness.go) so
// that peak memory, GC state and lazily-built caches are per run; this
// file is what the child does. It drives the program only through the
// public run surface — ParseScenario, Scenario.Resolve, Run,
// ResolveScenarioLive, RunLiveCluster — reads the run's own Stats
// structs, checks the output, and reports one JSON object on stdout.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hop"
)

// Run modes of a child process.
const (
	modeRun    = "run"    // the timed, untraced run
	modeSetup  = "setup"  // the spec cut to max_iter 1: set-up cost only
	modeTraced = "traced" // the run with every trainer decorated
)

// RunReport is everything one run tells the harness.
type RunReport struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Seed     int64  `json:"seed"`
	// Err is a run error, deadlock or harness failure; Checks lists the
	// output checks that failed. Either makes the run count as failed.
	Err    string   `json:"err,omitempty"`
	Checks []string `json:"checks,omitempty"`

	Workers   int     `json:"workers"`
	Attempted int64   `json:"attempted"` // workers × max_iter
	Steps     int64   `json:"steps"`     // gradient steps actually executed
	RunS      float64 `json:"run_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Simulated-clock results (simulator only).
	VirtTimeToTargetS float64 `json:"virt_time_to_target_s,omitempty"`
	VirtIterMs        float64 `json:"virt_iter_ms,omitempty"`
	ComputeBaseMs     float64 `json:"compute_base_ms,omitempty"`

	// Fingerprint is every output of a simulated run that must repeat
	// exactly at a given seed, rendered as text; Losses is each live
	// worker's final eval loss, which must repeat to the workload's
	// LossTolerance when the spec is timing-forced. Repetitions are compared on both.
	Fingerprint string    `json:"fingerprint,omitempty"`
	Losses      []float64 `json:"losses,omitempty"`

	// Protocol counters (core.Stats, summed over workers).
	SendsSuppressed int64 `json:"sends_suppressed"`
	StaleDiscarded  int64 `json:"stale_discarded"`
	Jumps           int64 `json:"jumps"`
	ItersSkipped    int64 `json:"iters_skipped"`
	MaxGap          int64 `json:"max_gap"`

	// Simulated fabric counters (netsim.Stats).
	NetMessages   int64 `json:"net_messages"`
	NetBytes      int64 `json:"net_bytes"`
	NetInterBytes int64 `json:"net_inter_bytes"`

	// Wire counters (transport.Stats, summed over workers).
	FramesSent      int64 `json:"frames_sent"`
	BytesSent       int64 `json:"bytes_sent"`
	UpdatesSent     int64 `json:"updates_sent"`
	RawUpdateBytes  int64 `json:"raw_update_bytes"`
	WireUpdateBytes int64 `json:"wire_update_bytes"`
	PipelineStalls  int64 `json:"pipeline_stalls"`
	ReadErrors      int64 `json:"read_errors"`
	CorruptFrames   int64 `json:"corrupt_frames"`

	// Allocator and collector activity during the run.
	Mallocs    int64 `json:"mallocs"`
	AllocBytes int64 `json:"alloc_bytes"`
	GCPauseNs  int64 `json:"gc_pause_ns"`

	Trace *TraceSummary `json:"trace,omitempty"`
}

// Failed reports whether the run counts as failed.
func (r *RunReport) Failed() bool { return r.Err != "" || len(r.Checks) > 0 }

func (r *RunReport) check(ok bool, format string, args ...any) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// quiet discards worker diagnostics: a healthy benchmark run has none,
// and an unhealthy one fails its wire-counter checks.
type quiet struct{}

func (quiet) Printf(string, ...any) {}

// memDelta measures allocator and collector activity across a run.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop(rep *RunReport) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.Mallocs = int64(after.Mallocs - m.before.Mallocs)
	rep.AllocBytes = int64(after.TotalAlloc - m.before.TotalAlloc)
	rep.GCPauseNs = int64(after.PauseTotalNs - m.before.PauseTotalNs)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runWorkload executes one run of w in this process. traceOut, when
// non-empty in traced mode, is where the span file goes.
func runWorkload(w Workload, mode string, seed int64, traceOut string) *RunReport {
	rep := &RunReport{Workload: w.Name, Mode: mode, Seed: seed}
	spec, err := w.Spec(seed)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	if mode == modeSetup {
		spec.MaxIter = 1
	}
	var tr *Tracer
	if mode == modeTraced {
		tr = NewTracer(spec.MaxIter)
	}
	if w.Live {
		runLive(rep, w, spec, tr)
	} else {
		runSim(rep, spec, tr)
	}
	if tr != nil && rep.Err == "" {
		s := tr.Summary()
		rep.Trace = &s
		if traceOut != "" {
			if err := tr.WriteFile(traceOut, w.Name); err != nil {
				rep.Err = "write trace: " + err.Error()
			}
		}
	}
	return rep
}

// checkLoss is the final-loss check every run must pass.
func (r *RunReport) checkLoss(spec hop.Scenario, loss float64) {
	target := spec.ResolvedTargetLoss()
	r.check(!math.IsNaN(loss) && !math.IsInf(loss, 0) && loss <= target,
		"final eval loss %v not finite and <= target %v", loss, target)
}

// runSim runs the spec on the deterministic simulator.
func runSim(rep *RunReport, spec hop.Scenario, tr *Tracer) {
	opts, err := spec.Resolve()
	if err != nil {
		rep.Err = err.Error()
		return
	}
	g := opts.Core.Graph
	rep.Workers = g.N()
	rep.Attempted = int64(g.N()) * int64(spec.MaxIter)
	rep.ComputeBaseMs = float64(opts.Compute.Base) / 1e6
	if tr != nil {
		opts.Trainer = tr.Prototype(opts.Trainer)
		tr.Start()
	}
	mem := startMem()
	t0 := time.Now()
	res, err := hop.Run(opts)
	rep.RunS = time.Since(t0).Seconds()
	mem.stop(rep)
	if tr != nil {
		tr.Stop()
	}
	rep.PeakRSSMB = peakRSSMB()
	if err != nil {
		rep.Err = err.Error()
		return
	}
	if res.Deadlock != nil {
		rep.Err = "deadlock: " + res.Deadlock.Error()
		return
	}

	rec := res.Metrics
	rep.Steps = int64(rec.Iterations())
	rep.VirtIterMs = float64(rec.MeanIterDurationAll(2)) / 1e6
	// Expected simulated time to the target: iterations to reach it
	// times the run's mean iteration duration. The first-crossing time
	// itself (Eval.TimeToValue) is dominated by whether the one probe
	// worker happened to draw a 6x slowdown in its first few dozen
	// iterations — a quartile spread of 15-60 % across seeds — while
	// both factors here are steady and either moving is a real change.
	if step, ok := rec.Eval.StepToValue(spec.ResolvedTargetLoss()); ok {
		rep.VirtTimeToTargetS = float64(step+1) * rep.VirtIterMs / 1e3
	} else if spec.MaxIter > 1 {
		rep.check(false, "eval loss never reached target %v", spec.ResolvedTargetLoss())
	}

	es, fs := res.Engine.Stats(), res.Fabric.Stats()
	rep.SendsSuppressed, rep.StaleDiscarded = int64(es.SendsSuppressed), int64(es.StaleDiscarded)
	rep.Jumps, rep.ItersSkipped = int64(es.Jumps), int64(es.IterationsSkipped)
	rep.NetMessages, rep.NetBytes, rep.NetInterBytes = int64(fs.Messages), fs.Bytes, fs.InterBytes
	gaps := res.Engine.Gaps()
	rep.MaxGap = int64(gaps.MaxGapOverall())

	rep.check(rep.Steps == rep.Attempted, "executed %d iterations, want %d", rep.Steps, rep.Attempted)
	bounds := hop.NewBounds(opts.Core)
	for i := 0; i < g.N(); i++ {
		for _, j := range append(append([]int(nil), g.In(i)...), g.Out(i)...) {
			if got, bound := gaps.MaxGap(i, j), bounds.Gap(i, j); got > bound {
				rep.check(false, "iteration gap(%d,%d) = %d exceeds its Table 1 bound %d", i, j, got, bound)
			}
		}
	}
	loss := res.Trainers[opts.EvalWorker].EvalLoss()
	if spec.MaxIter > 1 {
		rep.checkLoss(spec, loss)
	}
	rep.Fingerprint = fmt.Sprintf("iters=%d virt=%d loss=%016x fabric=%+v engine=%+v",
		rep.Steps, int64(res.Duration), math.Float64bits(loss), fs, es)
}

// runLive runs the spec as a loopback TCP cluster.
func runLive(rep *RunReport, w Workload, spec hop.Scenario, tr *Tracer) {
	cfgs, err := hop.ResolveScenarioLive(spec, hop.ScenarioLiveOptions{TimeScale: w.TimeScale, Logger: quiet{}})
	if err != nil {
		rep.Err = err.Error()
		return
	}
	n := len(cfgs)
	rep.Workers = n
	rep.Attempted = int64(n) * int64(spec.MaxIter)
	if tr != nil {
		for i := range cfgs {
			cfgs[i].Trainer = tr.Worker(cfgs[i].Trainer, i)
			cfgs[i].ComputeDelay = tr.Delay(cfgs[i].ComputeDelay)
		}
		tr.Start()
	}
	mem := startMem()
	res, err := hop.RunLiveCluster(cfgs, 0)
	mem.stop(rep)
	if tr != nil {
		tr.Stop()
	}
	rep.PeakRSSMB = peakRSSMB()
	if err != nil {
		rep.Err = err.Error()
		return
	}
	rep.RunS = res.Duration.Seconds()

	outDegree := 0
	worst := math.Inf(-1)
	for i, lw := range res.Workers {
		cs, ws := lw.Stats(), lw.WireStats()
		rep.SendsSuppressed += int64(cs.SendsSuppressed)
		rep.StaleDiscarded += int64(cs.StaleDiscarded)
		rep.Jumps += int64(cs.Jumps)
		rep.ItersSkipped += int64(cs.IterationsSkipped)
		rep.FramesSent += ws.FramesSent
		rep.BytesSent += ws.BytesSent
		rep.UpdatesSent += ws.UpdatesSent
		rep.RawUpdateBytes += ws.RawUpdateBytesSent
		rep.WireUpdateBytes += ws.WireUpdateBytesSent
		rep.PipelineStalls += ws.PipelineStalls
		rep.ReadErrors += ws.ReadErrors
		rep.CorruptFrames += ws.CorruptFrames
		outDegree += len(cfgs[i].Graph.Out(i))
		loss := lw.Trainer().EvalLoss()
		if loss > worst || math.IsNaN(loss) {
			worst = loss
		}
		rep.Losses = append(rep.Losses, loss)
		if i == 0 && spec.Protocol.SkipMaxJump > 0 && spec.MaxIter > 1 {
			rep.check(cs.Jumps > 0, "straggler worker 0 never jumped")
		}
	}
	rep.Steps = rep.Attempted - rep.ItersSkipped
	rep.check(rep.ReadErrors == 0, "%d inbound connections dropped", rep.ReadErrors)
	rep.check(rep.CorruptFrames == 0, "%d corrupt frames", rep.CorruptFrames)
	if w.Deterministic {
		want := int64(outDegree) * int64(spec.MaxIter)
		rep.check(rep.UpdatesSent == want, "sent %d updates, want %d", rep.UpdatesSent, want)
	}
	if spec.MaxIter > 1 {
		rep.checkLoss(spec, worst)
	}
}
