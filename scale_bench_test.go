package hop_test

// scale_bench_test.go — the steps/s-vs-n trajectory: one fixed
// 30-iteration quadratic run per (topology, n) point, with n workers
// over n/8 machines, reported as a custom steps/s metric (completed
// worker iterations per wall-clock second). scripts/bench_scale.sh
// folds these into BENCH_scale.json, the committed scaling curve that
// bench_compare.sh diffs like the GEMM and live-throughput baselines.

import (
	"testing"

	"hop"
)

const scaleBenchIters = 30

func benchScale(b *testing.B, kind string, n int) {
	m := n / 8
	if m < 1 {
		m = 1
	}
	spec := hop.Scenario{
		Workload: "quadratic",
		Topology: hop.ScenarioTopology{Kind: kind, Workers: n, Machines: m},
		MaxIter:  scaleBenchIters,
		Seed:     7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hop.RunScenario(spec)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Metrics.Iterations(); got != n*scaleBenchIters {
			b.Fatalf("completed %d iterations, want %d", got, n*scaleBenchIters)
		}
	}
	b.ReportMetric(float64(b.N*n*scaleBenchIters)/b.Elapsed().Seconds(), "steps/s")
}

func BenchmarkScaleRingN8(b *testing.B)    { benchScale(b, "ring", 8) }
func BenchmarkScaleRingN64(b *testing.B)   { benchScale(b, "ring", 64) }
func BenchmarkScaleRingN256(b *testing.B)  { benchScale(b, "ring", 256) }
func BenchmarkScaleRingN1024(b *testing.B) { benchScale(b, "ring", 1024) }
func BenchmarkScaleRingN4096(b *testing.B) { benchScale(b, "ring", 4096) }

func BenchmarkScaleHierN8(b *testing.B)    { benchScale(b, "hier-allreduce", 8) }
func BenchmarkScaleHierN64(b *testing.B)   { benchScale(b, "hier-allreduce", 64) }
func BenchmarkScaleHierN256(b *testing.B)  { benchScale(b, "hier-allreduce", 256) }
func BenchmarkScaleHierN1024(b *testing.B) { benchScale(b, "hier-allreduce", 1024) }
func BenchmarkScaleHierN4096(b *testing.B) { benchScale(b, "hier-allreduce", 4096) }
