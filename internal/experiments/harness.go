package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hop/internal/cluster"
	"hop/internal/metrics"
	"hop/internal/scenario"
)

// Report is the outcome of one experiment: the rendered text the CLI
// prints and the named summary metrics tests and benches assert on.
type Report struct {
	ID    string
	Title string

	text    strings.Builder
	Metrics map[string]float64
	Series  map[string]*metrics.Series
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}, Series: map[string]*metrics.Series{}}
}

func (r *Report) printf(format string, args ...any) {
	fmt.Fprintf(&r.text, format, args...)
}

func (r *Report) metric(name string, v float64) {
	r.Metrics[name] = v
}

func (r *Report) series(name string, s metrics.Series) {
	c := s
	c.Name = name
	r.Series[name] = &c
}

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	sb.WriteString(r.text.String())
	if len(r.Metrics) > 0 {
		fmt.Fprintf(&sb, "-- summary metrics --\n")
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%-48s %12.4f\n", k, r.Metrics[k])
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// RenderSeries writes all recorded series (for plotting externally).
func (r *Report) RenderSeries(w io.Writer) {
	keys := make([]string, 0, len(r.Series))
	for k := range r.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.Series[k].Render(w)
	}
}

// decSpec is the standard decentralized scenario every figure starts
// from: a workload profile on a paper topology at the scale's
// deadline. Figures customize the returned spec declaratively
// (protocol, hetero, net) instead of mutating option structs.
func decSpec(p Profile, scale Scale, topo scenario.Topology, seed int64) scenario.Spec {
	return scenario.Spec{
		Workload: p.Name,
		Topology: topo,
		Deadline: scenario.Duration(p.Deadline[scale]),
		Seed:     seed,
	}
}

// runSpec resolves and executes one scenario on the simulator.
func runSpec(s scenario.Spec) (*cluster.Result, error) {
	return s.Run()
}

// summarize prints the standard per-run row used across figures.
func summarize(rep *Report, label string, rec *metrics.Recorder, dur time.Duration, target float64) {
	ttt := "-"
	if tt, ok := rec.Eval.TimeToValue(target); ok {
		ttt = fmt.Sprintf("%.0fs", tt.Seconds())
	}
	rep.printf("%-42s iters=%-6d mean-iter=%-8s final-loss=%-8.4f min-loss=%-8.4f time-to-%.2f=%s\n",
		label, rec.Iterations(), rec.MeanIterDurationAll(2).Round(time.Millisecond),
		rec.Eval.Last(-1), rec.Eval.MinValue(-1), target, ttt)
}

// key builds a metric key from parts.
func key(parts ...string) string { return strings.Join(parts, "/") }
