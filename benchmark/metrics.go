package main

// The benchmark's vocabulary: every metric name, unit and direction the
// program can emit. BENCHMARK.json restates the same tables for the
// driver; contract_test.go asserts the two agree, so a name cannot
// drift in one place only. The names are final — every later claim
// about this repository's speed is made with them.

// Clock labels which clock a metric is read from. Host-clock metrics
// are noisy on a shared machine; simulated-clock metrics and counts
// repeat exactly for a given seed.
type Clock string

const (
	ClockHost  Clock = "host"
	ClockSim   Clock = "sim"
	ClockCount Clock = "count"
)

// Direction says which way is better.
type Direction string

const (
	Lower  Direction = "lower"
	Higher Direction = "higher"
)

// EndToEnd describes one end-to-end metric and its regression rule.
type EndToEnd struct {
	Name   string
	Unit   string
	Better Direction
	Clock  Clock
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression.
	Bound float64
	// AbsFloor, when > 0, is an absolute slack in the metric's unit: a
	// change regresses only when it is worse by more than
	// max(Bound·parent, AbsFloor). Keeps millisecond set-up times from
	// flagging on scheduler jitter.
	AbsFloor float64
	// Exact marks metrics that repeat exactly for a given seed: between
	// two result sets of the same seed any worsening is a regression,
	// Bound applies only across seeds.
	Exact bool
}

// notApplicable is what a metric reads on a workload it does not apply
// to (the virtual-clock metrics on the live plane). The driver's
// contract wants every end-to-end metric on every workload and none of
// them zero, so "not measured here" is the constant 1, never a
// fabricated reading.
const notApplicable = 1.0

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []EndToEnd{
	{Name: "setup_s", Unit: "s", Better: Lower, Clock: ClockHost, Bound: 0.25, AbsFloor: 0.02},
	{Name: "run_s", Unit: "s", Better: Lower, Clock: ClockHost, Bound: 0.25},
	{Name: "steps_per_s", Unit: "1/s", Better: Higher, Clock: ClockHost, Bound: 0.25},
	{Name: "virt_time_to_target_s", Unit: "sim_s", Better: Lower, Clock: ClockSim, Bound: 0.25, Exact: true},
	{Name: "virt_iter_ms", Unit: "sim_ms", Better: Lower, Clock: ClockSim, Bound: 0.2, Exact: true},
	{Name: "wire_bytes_per_step", Unit: "B", Better: Lower, Clock: ClockCount, Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MiB", Better: Lower, Clock: ClockHost, Bound: 0.15},
	{Name: "ok_share", Unit: "ratio", Better: Higher, Clock: ClockCount, Bound: 0.01, Exact: true},
}

// Layer describes one per-layer metric. Per-layer metrics carry no
// bound: they explain an end-to-end movement, they do not gate one.
type Layer struct {
	Name   string
	Unit   string
	Better Direction
}

// perLayer lists the per-layer metrics in report order, grouped by the
// package they measure. A metric a workload does not exercise (the
// transport on the simulator, the fabric on TCP) is absent from that
// workload's results and reads 0 on the driver's line.
var perLayer = []Layer{
	// model (+ nn, opt, svm, data)
	{"model.grad_share", "ratio", Lower},
	{"model.apply_share", "ratio", Lower},
	{"model.eval_share", "ratio", Lower},
	{"model.step_us", "us", Lower},
	// tensor
	{"tensor.gemm_gflops", "gflops", Higher},
	{"tensor.mean_us", "us", Lower},
	{"tensor.pool_speedup", "x", Higher},
	// compress
	{"compress.encode_us", "us", Lower},
	{"compress.decode_us", "us", Lower},
	{"compress.encode_allocs", "count", Lower},
	// transport
	{"transport.compression_ratio", "x", Higher},
	{"transport.frames_per_update", "count", Lower},
	{"transport.wire_bytes_per_update", "B", Lower},
	{"transport.pipeline_stalls_per_update", "ratio", Lower},
	{"transport.read_errors", "count", Lower},
	{"transport.corrupt_frames", "count", Lower},
	{"transport.update_oneway_us", "us", Lower},
	{"transport.update_mb_per_s", "MB/s", Higher},
	// live
	{"live.sync_us_per_step", "us", Lower},
	{"live.iter_p50_us", "us", Lower},
	{"live.iter_tail_us", "us", Lower},
	{"live.iter_tail_pct", "%", Higher},
	{"live.iter_samples", "count", Higher},
	{"live.allocs_per_step", "count", Lower},
	{"live.gc_pause_ms", "ms", Lower},
	{"live.injected_delay_share", "ratio", Lower},
	{"live.mesh_ms", "ms", Lower},
	// core
	{"core.updates_per_step", "count", Lower},
	{"core.sends_suppressed_per_step", "count", Higher},
	{"core.stale_discarded_per_step", "count", Lower},
	{"core.jumps", "count", Higher},
	{"core.iters_skipped", "count", Higher},
	{"core.max_gap", "count", Lower},
	{"core.virt_iter_over_base", "x", Lower},
	{"core.queue_op_ns", "ns", Lower},
	{"core.token_op_ns", "ns", Lower},
	{"core.gap_advance_ns", "ns", Lower},
	// sim
	{"sim.switch_ns", "ns", Lower},
	// netsim
	{"netsim.msgs_per_step", "count", Lower},
	{"netsim.inter_bytes_per_step", "B", Lower},
	{"netsim.deliver_ns", "ns", Lower},
	// cluster
	{"cluster.engine_us_per_step", "us", Lower},
	{"cluster.allocs_per_step", "count", Lower},
	{"cluster.alloc_bytes_per_step", "B", Lower},
	// graph, scenario
	{"graph.build_us", "us", Lower},
	{"scenario.resolve_us", "us", Lower},
	// harness
	{"trace.overhead_pct", "%", Lower},
	{"budget.coverage_pct", "%", Higher},
}
