package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Summary is the order statistics of one metric over repetitions.
type Summary struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize computes the median and quartiles of values. Quartiles
// follow Python's statistics.quantiles(values, n=4) (the exclusive
// method), the rule the driver applies to this benchmark's output, so
// a spread computed here is the spread the driver sees.
func summarize(values []float64) Summary {
	s := Summary{N: len(values), Values: append([]float64(nil), values...)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 2)
	s.Q1 = quantile(sorted, 1)
	s.Q3 = quantile(sorted, 3)
	return s
}

// quantile returns the i-th quartile cut point (i in 1..3) of sorted
// data by the exclusive method; a single sample is its own quartile.
func quantile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	if ld == 1 {
		return sorted[0]
	}
	j := i * (ld + 1) / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*(ld+1) - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to be a measurement and not an outlier.
const tailMinBeyond = 10

// tail returns the highest percentile of samples that still has at
// least tailMinBeyond samples beyond it: the value, the percentile (in
// percent) it sits at, and false when there are too few samples to
// report any tail.
func tail(samples []float64) (value, pct float64, ok bool) {
	n := len(samples)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[n-tailMinBeyond-1], 100 * float64(n-tailMinBeyond) / float64(n), true
}

// Verdict is compare's judgement of one metric on one workload.
type Verdict string

const (
	VerdictOK         Verdict = "ok"
	VerdictRegression Verdict = "REGRESSION"
	// VerdictUnresolved means the parent's own run-to-run spread is
	// wider than the metric's bound: the runs cannot tell "unchanged"
	// from "regressed", and saying "ok" would be a guess.
	VerdictUnresolved Verdict = "unresolved"
)

// allowance is how much worse than parentMedian a metric may read
// before it regresses: max(Bound·|parent|, AbsFloor).
func (m EndToEnd) allowance(parentMedian float64) float64 {
	return math.Max(m.Bound*math.Abs(parentMedian), m.AbsFloor)
}

// worseBy returns how much worse change is than parent in the metric's
// own direction (negative when it improved).
func (m EndToEnd) worseBy(parent, change float64) float64 {
	if m.Better == Higher {
		return parent - change
	}
	return change - parent
}

// judge applies the metric's regression rule to a parent and a change
// summary. sameSeed says both were measured on the same workload seed,
// which is when exact metrics must not move at all.
func judge(m EndToEnd, parent, change Summary, sameSeed bool) Verdict {
	worse := m.worseBy(parent.Median, change.Median)
	if m.Exact && sameSeed {
		if worse > 0 {
			return VerdictRegression
		}
		return VerdictOK
	}
	allowed := m.allowance(parent.Median)
	if parent.Q3-parent.Q1 > allowed {
		return VerdictUnresolved
	}
	if worse > allowed {
		return VerdictRegression
	}
	return VerdictOK
}

// compareResults applies every end-to-end bound to two result sets and
// writes one row per (workload, metric). It returns the number of
// regressions and unresolved rows.
func compareResults(w io.Writer, parent, change *Results) (regressions, unresolved int) {
	sameSeed := parent.Meta.Seed == change.Meta.Seed
	fmt.Fprintf(w, "parent: seed %d, %d reps, %s   change: seed %d, %d reps, %s\n",
		parent.Meta.Seed, parent.Meta.Reps, parent.Meta.GoVersion,
		change.Meta.Seed, change.Meta.Reps, change.Meta.GoVersion)
	fmt.Fprintf(w, "%-26s %-22s %14s %24s %14s %8s  %s\n",
		"workload", "metric", "parent", "[q1, q3]", "change", "delta", "verdict")
	for _, wl := range workloads {
		p, okP := parent.Workloads[wl.Name]
		c, okC := change.Workloads[wl.Name]
		if !okP || !okC {
			continue
		}
		for _, m := range endToEnd {
			ps, cs := p.EndToEnd[m.Name], c.EndToEnd[m.Name]
			if ps.N == 0 || cs.N == 0 {
				continue
			}
			v := judge(m, ps, cs, sameSeed)
			switch v {
			case VerdictRegression:
				regressions++
			case VerdictUnresolved:
				unresolved++
			}
			delta := 0.0
			if ps.Median != 0 {
				delta = 100 * (cs.Median - ps.Median) / math.Abs(ps.Median)
			}
			fmt.Fprintf(w, "%-26s %-22s %14.6g %24s %14.6g %+7.2f%%  %s\n",
				wl.Name, m.Name, ps.Median, fmt.Sprintf("[%.6g, %.6g]", ps.Q1, ps.Q3), cs.Median, delta, v)
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	return regressions, unresolved
}
