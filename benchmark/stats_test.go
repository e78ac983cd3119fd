package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The reference quartiles are Python's statistics.quantiles(v, n=4),
// the rule the driver applies.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		values         []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5.1, 4.9, 5.6}, 4.9, 5.1, 5.6},
		{[]float64{2, 8}, 0.5, 5, 9.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 4, 5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.values)
		if s.N != len(c.values) || !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v (n %d), want %v %v %v",
				c.values, s.Q1, s.Median, s.Q3, s.N, c.q1, c.median, c.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return v
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples cannot have 10 beyond any of them")
	}
	cases := []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100.0 / 11},
		{100, 90, 90},
		{1000, 990, 99},
		{80000, 79990, 99.9875},
	}
	for _, c := range cases {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.value || !near(pct, c.pct) {
			t.Errorf("tail of 1..%d = %v at p%v (ok %v), want %v at p%v", c.n, v, pct, ok, c.value, c.pct)
		}
	}
}

func metric(t *testing.T, name string) EndToEnd {
	t.Helper()
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return EndToEnd{}
}

func TestJudgeAppliesEachMetricsBound(t *testing.T) {
	tight := func(median float64) Summary { return Summary{N: 5, Median: median, Q1: median, Q3: median} }
	runS := metric(t, "run_s")
	steps := metric(t, "steps_per_s")
	setup := metric(t, "setup_s")
	virt := metric(t, "virt_iter_ms")
	okShare := metric(t, "ok_share")
	cases := []struct {
		name           string
		m              EndToEnd
		parent, change Summary
		sameSeed       bool
		want           Verdict
	}{
		{"lower-is-better within bound", runS, tight(10), tight(10 * (1 + runS.Bound*0.9)), true, VerdictOK},
		{"lower-is-better beyond bound", runS, tight(10), tight(10 * (1 + runS.Bound*1.1)), true, VerdictRegression},
		{"lower-is-better improved", runS, tight(10), tight(5), true, VerdictOK},
		{"higher-is-better within bound", steps, tight(1000), tight(1000 * (1 - steps.Bound*0.9)), true, VerdictOK},
		{"higher-is-better beyond bound", steps, tight(1000), tight(1000 * (1 - steps.Bound*1.1)), true, VerdictRegression},
		// setup_s: 25 % of 20 ms is 5 ms, but the floor is 20 ms.
		{"set-up under the absolute floor", setup, tight(0.020), tight(0.038), true, VerdictOK},
		{"set-up beyond the absolute floor", setup, tight(0.020), tight(0.041), true, VerdictRegression},
		{"set-up relative bound above the floor", setup, tight(1.0), tight(1.2), true, VerdictOK},
		{"set-up relative bound exceeded", setup, tight(1.0), tight(1.3), true, VerdictRegression},
		{"exact metric, same seed, any increase", virt, tight(7101.28), tight(7101.29), true, VerdictRegression},
		{"exact metric, same seed, equal", virt, tight(7101.28), tight(7101.28), true, VerdictOK},
		{"exact metric, other seed, within bound", virt, tight(7101.28), tight(7300), false, VerdictOK},
		{"any failure at one seed", okShare, tight(1), tight(0.999), true, VerdictRegression},
		{"parent spread wider than the bound", runS, Summary{N: 5, Median: 10, Q1: 8, Q3: 11}, tight(10), true, VerdictUnresolved},
		{"parent spread inside the bound", runS, Summary{N: 5, Median: 10, Q1: 9.5, Q3: 10.5}, tight(10), true, VerdictOK},
		{"set-up spread inside the floor", setup, Summary{N: 5, Median: 0.02, Q1: 0.015, Q3: 0.03}, tight(0.02), true, VerdictOK},
	}
	for _, c := range cases {
		if got := judge(c.m, c.parent, c.change, c.sameSeed); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareLabelsRegressionsAndUnresolved(t *testing.T) {
	result := func(runS Summary) *Results {
		return &Results{Meta: newMeta(7), Workloads: map[string]*WorkloadResult{
			workloads[0].Name: {Name: workloads[0].Name, EndToEnd: map[string]Summary{
				"run_s":    runS,
				"ok_share": summarize([]float64{1}),
			}},
		}}
	}
	steady := Summary{N: 5, Median: 10, Q1: 9.9, Q3: 10.1}
	var out bytes.Buffer
	if reg, unres := compareResults(&out, result(steady), result(steady)); reg != 0 || unres != 0 {
		t.Fatalf("same results: %d regressions, %d unresolved\n%s", reg, unres, out.String())
	}
	out.Reset()
	reg, unres := compareResults(&out, result(steady), result(Summary{N: 5, Median: 20, Q1: 20, Q3: 20}))
	if reg != 1 || unres != 0 || !strings.Contains(out.String(), string(VerdictRegression)) {
		t.Fatalf("2x slower run: %d regressions, %d unresolved\n%s", reg, unres, out.String())
	}
	out.Reset()
	reg, unres = compareResults(&out, result(Summary{N: 5, Median: 10, Q1: 5, Q3: 15}), result(steady))
	if reg != 0 || unres != 1 || !strings.Contains(out.String(), string(VerdictUnresolved)) {
		t.Fatalf("noisy parent: %d regressions, %d unresolved\n%s", reg, unres, out.String())
	}
}
