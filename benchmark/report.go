package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// Meta records where and how a results file was measured.
type Meta struct {
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newMeta(seed int64) Meta {
	return Meta{Seed: seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs()}
}

// Results is a results file: what compare reads.
type Results struct {
	Meta      Meta                       `json:"meta"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

func (r *Results) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Results{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// printTable prints every metric of the selected workloads by name,
// with its unit, clock and sample count.
func (r *Results) printTable(w io.Writer, selected []Workload) {
	fmt.Fprintf(w, "seed %d, %s, nproc %d, children at GOMAXPROCS %d\n",
		r.Meta.Seed, r.Meta.GoVersion, r.Meta.NumCPU, r.Meta.GOMAXPROCS)
	for _, wl := range selected {
		res := r.Workloads[wl.Name]
		fmt.Fprintf(w, "\n== %s  (attempted %d worker-iterations, failed %d)\n", wl.Name, res.Attempted, res.Failed)
		for _, f := range res.Failures {
			fmt.Fprintf(w, "   FAILED %s\n", f)
		}
		fmt.Fprintf(w, "   %-38s %-7s %-6s %14s %28s %3s\n", "end-to-end metric", "unit", "clock", "median", "[q1, q3]", "n")
		for _, m := range endToEnd {
			s, ok := res.EndToEnd[m.Name]
			if !ok {
				continue
			}
			note := ""
			if wl.Live && m.Clock == ClockSim {
				note = "  (not applicable on the live plane)"
			}
			fmt.Fprintf(w, "   %-38s %-7s %-6s %14.6g %28s %3d%s\n", m.Name, m.Unit, m.Clock, s.Median,
				fmt.Sprintf("[%.6g, %.6g]", s.Q1, s.Q3), s.N, note)
		}
		if res.Layers == nil {
			continue
		}
		fmt.Fprintf(w, "   %-38s %-7s %21s\n", "per-layer metric", "unit", "value")
		for _, l := range perLayer {
			if v, ok := res.Layers[l.Name]; ok {
				fmt.Fprintf(w, "   %-38s %-7s %21.6g\n", l.Name, l.Unit, v)
			}
		}
	}
}

// driverMetric is one metric on the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine writes the one-line JSON result the driver reads:
// every end-to-end metric (medians over the repetitions), or with
// layers every per-layer metric. A metric that does not apply reads 0.
func (res *WorkloadResult) printDriverLine(w io.Writer, layers bool) error {
	metrics := map[string]driverMetric{}
	if layers {
		for _, l := range perLayer {
			metrics[l.Name] = driverMetric{Value: res.Layers[l.Name], Unit: l.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = driverMetric{Value: res.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
