package main

// The harness side of a measurement: start one fresh child process per
// repetition, collect their reports, fold them into medians and
// quartiles, derive the per-layer metrics, and judge correctness.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// Harness runs workloads as child processes of this binary.
type Harness struct {
	Exe    string // this binary
	OutDir string // result and trace files
	Seed   int64
}

// childProcs is the GOMAXPROCS every timed child runs at: the machine's
// cores, capped so a bigger runner measures the same configuration.
func childProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runChild executes one run of w in a fresh process and returns its
// report and the process's whole wall-clock life (what setup_s reads
// on a setup-mode child). A child that crashes, prints no report or
// outlives the watchdog yields a report with Err set.
func (h *Harness) runChild(w Workload, mode string) (*RunReport, time.Duration) {
	fail := func(err error, wall time.Duration) (*RunReport, time.Duration) {
		rep := &RunReport{Workload: w.Name, Mode: mode, Seed: h.Seed, Err: err.Error()}
		if spec, serr := w.Spec(h.Seed); serr == nil {
			iters := spec.MaxIter
			if mode == modeSetup {
				iters = 1
			}
			rep.Workers = spec.Topology.Workers
			rep.Attempted = int64(spec.Topology.Workers) * int64(iters)
		}
		return rep, wall
	}
	// The watchdog: ten times the expected run, within the driver's
	// three-minute limit on a whole invocation.
	limit := time.Duration(10 * w.ExpectRunS * float64(time.Second))
	if limit > 100*time.Second {
		limit = 100 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args := []string{"child", "--workload", w.Name, "--mode", mode, "--seed", strconv.FormatInt(h.Seed, 10)}
	if mode == modeTraced {
		args = append(args, "--trace-out", filepath.Join(h.OutDir, w.Name+".trace.json"))
	}
	cmd := exec.CommandContext(ctx, h.Exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if ctx.Err() != nil {
		return fail(fmt.Errorf("watchdog: run exceeded %v", limit), wall)
	}
	if err != nil {
		return fail(fmt.Errorf("child: %w", err), wall)
	}
	rep := &RunReport{}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), rep); err != nil {
		return fail(fmt.Errorf("child report: %w", err), wall)
	}
	return rep, wall
}

// WorkloadResult is one workload's folded measurements.
type WorkloadResult struct {
	Name string `json:"name"`
	// Attempted and Failed count worker-iterations over every run made
	// (probes, timed, traced); a failed run counts all of its iterations.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Failures lists what failed, one line each.
	Failures []string `json:"failures,omitempty"`
	// EndToEnd holds each end-to-end metric's summary over the timed
	// repetitions (set-up probes for setup_s).
	EndToEnd map[string]Summary `json:"end_to_end"`
	// Layers holds the per-layer metrics of the traced run; metrics the
	// workload does not exercise are absent.
	Layers map[string]float64 `json:"per_layer,omitempty"`
}

// measurement accumulates one workload's runs before folding.
type measurement struct {
	w       Workload
	reports []*RunReport // every untraced child: probes and timed runs
	setups  []float64
	traced  *RunReport
	iso     map[string]float64
	isoErr  error
}

// logf reports progress on standard error; standard output is the
// result.
func (h *Harness) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// probe runs one set-up probe of m's workload.
func (h *Harness) probe(m *measurement) {
	rep, wall := h.runChild(m.w, modeSetup)
	m.reports = append(m.reports, rep)
	if !rep.Failed() {
		m.setups = append(m.setups, wall.Seconds())
	}
	h.logf("  %-26s setup  %.4f s%s", m.w.Name, wall.Seconds(), failNote(rep))
}

// timedRun runs one untraced repetition of m's workload.
func (h *Harness) timedRun(m *measurement) *RunReport {
	rep, _ := h.runChild(m.w, modeRun)
	m.reports = append(m.reports, rep)
	h.logf("  %-26s run    %.3f s  %d steps%s", m.w.Name, rep.RunS, rep.Steps, failNote(rep))
	return rep
}

// tracedRun runs the decorated repetition and the isolated layer
// timings of m's workload.
func (h *Harness) tracedRun(m *measurement, pace Pace) {
	m.traced, _ = h.runChild(m.w, modeTraced)
	h.logf("  %-26s traced %.3f s%s", m.w.Name, m.traced.RunS, failNote(m.traced))
	m.iso, m.isoErr = isolatedCosts(m.w, h.Seed, pace)
}

func failNote(rep *RunReport) string {
	if !rep.Failed() {
		return ""
	}
	if rep.Err != "" {
		return "  FAILED: " + rep.Err
	}
	return "  FAILED: " + rep.Checks[0]
}

// fold turns a workload's runs into its result.
func (m *measurement) fold() *WorkloadResult {
	res := &WorkloadResult{Name: m.w.Name, EndToEnd: map[string]Summary{}}
	all := append([]*RunReport(nil), m.reports...)
	if m.traced != nil {
		all = append(all, m.traced)
	}
	var runs []*RunReport // successful timed runs
	var first *RunReport
	agree := true
	for _, rep := range all {
		res.Attempted += rep.Attempted
		if rep.Failed() {
			res.Failed += rep.Attempted
			why := rep.Err
			if why == "" {
				why = fmt.Sprint(rep.Checks)
			}
			res.Failures = append(res.Failures, fmt.Sprintf("%s run: %s", rep.Mode, why))
			continue
		}
		if rep.Mode == modeRun {
			runs = append(runs, rep)
		}
		// The decorator must not change what the program computes, so
		// the traced run is held to the same fingerprint.
		if m.w.Deterministic && rep.Mode != modeSetup {
			if first == nil {
				first = rep
			} else if !sameOutputs(first, rep, m.w.LossTolerance) {
				agree = false
			}
		}
	}
	if !agree {
		res.Failed = res.Attempted
		res.Failures = append(res.Failures, "repetitions at one seed disagree on outputs that must repeat exactly")
	}
	if m.isoErr != nil {
		res.Failed = res.Attempted
		res.Failures = append(res.Failures, "isolated layer timings: "+m.isoErr.Error())
	}

	values := map[string][]float64{}
	for _, rep := range runs {
		for name, v := range endToEndValues(m.w, rep) {
			values[name] = append(values[name], v)
		}
	}
	for name, vs := range values {
		res.EndToEnd[name] = summarize(vs)
	}
	if len(m.setups) > 0 {
		res.EndToEnd["setup_s"] = summarize(m.setups)
	}
	if res.Attempted > 0 {
		res.EndToEnd["ok_share"] = summarize([]float64{1 - float64(res.Failed)/float64(res.Attempted)})
	}
	if m.traced != nil && !m.traced.Failed() && len(runs) > 0 {
		res.Layers = layerMetrics(m.w, runs, m.traced, m.iso)
	}
	return res
}

// sameOutputs reports whether two runs at one seed agree on everything
// that must repeat: the simulator's fingerprint exactly, live final
// losses to the relative tolerance tol.
func sameOutputs(a, b *RunReport, tol float64) bool {
	if a.Fingerprint != b.Fingerprint || len(a.Losses) != len(b.Losses) {
		return false
	}
	for i := range a.Losses {
		if math.Abs(a.Losses[i]-b.Losses[i]) > tol*math.Abs(a.Losses[i]) {
			return false
		}
	}
	return true
}

// endToEndValues reads one timed run's end-to-end metrics (setup_s and
// ok_share are folded per workload, not per run).
func endToEndValues(w Workload, rep *RunReport) map[string]float64 {
	steps := float64(rep.Steps)
	v := map[string]float64{
		"run_s":       rep.RunS,
		"steps_per_s": steps / rep.RunS,
		"peak_rss_mb": rep.PeakRSSMB,
	}
	if w.Live {
		v["virt_time_to_target_s"] = notApplicable
		v["virt_iter_ms"] = notApplicable
		v["wire_bytes_per_step"] = float64(rep.BytesSent) / steps
	} else {
		v["virt_time_to_target_s"] = rep.VirtTimeToTargetS
		v["virt_iter_ms"] = rep.VirtIterMs
		// The simulator's wire is modeled: bytes the fabric delivered.
		v["wire_bytes_per_step"] = float64(rep.NetBytes) / steps
	}
	return v
}

// layerMetrics derives the per-layer metrics of one workload from its
// untraced runs (counts, allocator activity, the reference run time),
// its traced run (spans) and the isolated unit costs.
func layerMetrics(w Workload, runs []*RunReport, traced *RunReport, iso map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range iso {
		out[k] = v
	}
	ref := runs[0]
	runS := make([]float64, len(runs))
	for i, r := range runs {
		runS[i] = r.RunS
	}
	untraced := summarize(runS).Median
	steps := float64(ref.Steps)
	ts := traced.Trace

	out["trace.overhead_pct"] = 100 * (traced.RunS/untraced - 1)
	out["core.sends_suppressed_per_step"] = float64(ref.SendsSuppressed) / steps
	out["core.stale_discarded_per_step"] = float64(ref.StaleDiscarded) / steps
	out["core.jumps"] = float64(ref.Jumps)
	out["core.iters_skipped"] = float64(ref.ItersSkipped)

	// explained is the CPU time the outside-in model accounts for:
	// Σ count × unit cost.
	perStep := iso["model.step_us"]*1e-6 + iso["tensor.mean_us"]*1e-6 + iso["core.queue_op_ns"]*1e-9
	var explained, denom float64
	if w.Live {
		updates := float64(ref.UpdatesSent)
		share := func(ns int64) float64 { return float64(ns) / float64(ts.IterNs) }
		out["model.grad_share"], out["model.apply_share"], out["model.eval_share"] = share(ts.GradNs), share(ts.ApplyNs), share(ts.EvalNs)
		out["transport.compression_ratio"] = float64(ref.RawUpdateBytes) / float64(ref.WireUpdateBytes)
		out["transport.frames_per_update"] = float64(ref.FramesSent) / updates
		out["transport.wire_bytes_per_update"] = float64(ref.BytesSent) / updates
		out["transport.pipeline_stalls_per_update"] = float64(ref.PipelineStalls) / updates
		out["transport.read_errors"] = float64(ref.ReadErrors)
		out["transport.corrupt_frames"] = float64(ref.CorruptFrames)
		out["live.sync_us_per_step"] = float64(ts.SelfNs()) / 1e3 / float64(ts.Iters)
		out["live.iter_p50_us"] = ts.IterP50Us
		out["live.iter_tail_us"] = ts.IterTailUs
		out["live.iter_tail_pct"] = ts.IterTailPct
		out["live.iter_samples"] = float64(ts.Iters)
		out["live.allocs_per_step"] = float64(ref.Mallocs) / steps
		out["live.gc_pause_ms"] = float64(ref.GCPauseNs) / 1e6
		out["live.injected_delay_share"] = float64(ts.InjectedNs) / 1e9 / traced.RunS
		out["core.updates_per_step"] = updates / steps
		explained = steps*perStep + updates*(iso["compress.encode_us"]+iso["compress.decode_us"]+iso["transport.update_oneway_us"])*1e-6
		// Workers run in parallel on the child's threads; the injected
		// sleeps of the slowest worker are wall clock nobody computes in.
		par := float64(ref.Workers)
		if p := float64(childProcs()); p < par {
			par = p
		}
		denom = untraced * par
		explained += float64(ts.InjectedNs) / 1e9 * par
	} else {
		share := func(ns int64) float64 { return float64(ns) / float64(ts.RunNs) }
		out["model.grad_share"], out["model.apply_share"], out["model.eval_share"] = share(ts.GradNs), share(ts.ApplyNs), share(ts.EvalNs)
		msgs := float64(ref.NetMessages)
		out["core.updates_per_step"] = msgs / steps
		out["core.max_gap"] = float64(ref.MaxGap)
		out["core.virt_iter_over_base"] = ref.VirtIterMs / ref.ComputeBaseMs
		out["netsim.msgs_per_step"] = msgs / steps
		out["netsim.inter_bytes_per_step"] = float64(ref.NetInterBytes) / steps
		out["cluster.engine_us_per_step"] = float64(ts.RunNs-ts.GradNs-ts.ApplyNs-ts.EvalNs) / 1e3 / float64(ts.Iters)
		out["cluster.allocs_per_step"] = float64(ref.Mallocs) / steps
		out["cluster.alloc_bytes_per_step"] = float64(ref.AllocBytes) / steps
		// Every delivered message wakes its receiver: one fabric
		// delivery and one kernel switch each.
		explained = steps*(perStep+iso["core.gap_advance_ns"]*1e-9) + msgs*(iso["netsim.deliver_ns"]+iso["sim.switch_ns"])*1e-9
		denom = untraced
	}
	out["budget.coverage_pct"] = 100 * explained / denom
	return out
}
