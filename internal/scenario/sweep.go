// sweep.go — axis-grid expansion and the parallel sweep runner. A
// Sweep is a base Spec plus ordered axes of partial-Spec patches; its
// cells are the Cartesian product of the axis values, each resolved to
// one deterministic simulated run. Cells are independent, so the
// runner fans them out across goroutines — the sweep is embarrassingly
// parallel, and like the tensor compute plane (DESIGN.md §3) the
// parallelism is forbidden from changing results: per-cell reports are
// byte-identical at any sweep width, pinned by tests.
package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/netsim"
)

// AxisValue is one point on an axis: a label naming the point in cell
// ids and reports, and a patch — a partial Spec as JSON — merged into
// the base spec when the cell is built.
type AxisValue struct {
	// Label names the value; it becomes part of the cell id, so it
	// must be non-empty, unique on its axis, and free of '/'.
	Label string `json:"label"`
	// Patch is a partial Spec document; fields it sets override the
	// base (and earlier axes'). An empty patch means "the base as-is".
	Patch json.RawMessage `json:"patch,omitempty"`
}

// Axis is one experiment dimension: a name and the values the sweep
// crosses.
type Axis struct {
	// Name labels the dimension ("hetero", "compression", …).
	Name string `json:"name"`
	// Values are the points the sweep takes along this axis.
	Values []AxisValue `json:"values"`
}

// Sweep expands a base spec across axis grids.
type Sweep struct {
	// Name labels the sweep; cell names are Name + "/" + cell id.
	Name string `json:"name,omitempty"`
	// Base is the spec every cell starts from.
	Base Spec `json:"base"`
	// Axes are crossed in order: the cell grid is their Cartesian
	// product, last axis fastest.
	Axes []Axis `json:"axes"`
}

// ParseSweep decodes a JSON sweep document, rejecting unknown fields
// and trailing content.
func ParseSweep(data []byte) (Sweep, error) {
	var sw Sweep
	if err := strictDecode(data, &sw); err != nil {
		return Sweep{}, fmt.Errorf("scenario: parse sweep: %w", err)
	}
	return sw, nil
}

// JSON renders the sweep as indented JSON; ParseSweep round-trips it.
func (sw Sweep) JSON() ([]byte, error) {
	return json.MarshalIndent(sw, "", "  ")
}

// Cell is one expanded grid point: its id (axis labels joined with
// '/') and the fully-merged spec.
type Cell struct {
	// ID is the slash-joined axis labels, e.g. "random6x/topk10".
	ID string
	// Spec is the base with every axis patch applied and the cell seed
	// derived.
	Spec Spec
}

// DeriveSeed computes a cell's scenario seed from the sweep's base
// seed and the cell id: the FNV-1a 64-bit hash of the id, XORed with
// the base seed and masked non-negative. The formula depends only on
// (base seed, cell id) — never on grid shape, axis order of other
// axes, or execution order — so any cell can be reproduced standalone
// by deriving the same seed (DESIGN.md §4.4).
func DeriveSeed(base int64, cellID string) int64 {
	h := fnv.New64a()
	io.WriteString(h, "hop-sweep/")
	io.WriteString(h, cellID)
	return int64((h.Sum64() ^ uint64(base)) & (1<<63 - 1))
}

// Cells expands the grid in deterministic order (Cartesian product of
// the axes, last axis fastest). Each cell's spec is a deep copy of the
// base with the axis patches applied in axis order; its seed is
// DeriveSeed(base.Seed, id) unless a patch set an explicit seed.
func (sw Sweep) Cells() ([]Cell, error) {
	if len(sw.Axes) == 0 {
		return nil, fmt.Errorf("scenario: sweep %q has no axes", sw.Name)
	}
	// pinsSeed[a][i] records whether axis a's value i names "seed" in
	// its patch — a static property, computed once, not per cell.
	pinsSeed := make([][]bool, len(sw.Axes))
	for a, ax := range sw.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q has no values", ax.Name)
		}
		seen := map[string]bool{}
		pinsSeed[a] = make([]bool, len(ax.Values))
		for i, v := range ax.Values {
			if v.Label == "" || strings.Contains(v.Label, "/") {
				return nil, fmt.Errorf("scenario: axis %q has invalid label %q (non-empty, no '/')", ax.Name, v.Label)
			}
			if seen[v.Label] {
				return nil, fmt.Errorf("scenario: axis %q has duplicate label %q", ax.Name, v.Label)
			}
			seen[v.Label] = true
			if len(v.Patch) > 0 {
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(v.Patch, &keys); err != nil {
					return nil, fmt.Errorf("scenario: axis %q value %q: %w", ax.Name, v.Label, err)
				}
				_, pinsSeed[a][i] = keys["seed"]
			}
		}
	}
	baseJSON, err := json.Marshal(sw.Base)
	if err != nil {
		return nil, fmt.Errorf("scenario: sweep base: %w", err)
	}

	var cells []Cell
	idx := make([]int, len(sw.Axes))
	for {
		// Build this cell: fresh base copy, then the axis patches.
		var spec Spec
		if err := json.Unmarshal(baseJSON, &spec); err != nil {
			return nil, fmt.Errorf("scenario: sweep base: %w", err)
		}
		labels := make([]string, len(sw.Axes))
		seedPinned := false
		for a, ax := range sw.Axes {
			v := ax.Values[idx[a]]
			labels[a] = v.Label
			if len(v.Patch) > 0 {
				if err := strictDecode(v.Patch, &spec); err != nil {
					return nil, fmt.Errorf("scenario: axis %q value %q: %w", ax.Name, v.Label, err)
				}
			}
			// A patch that names "seed" pins the cell's seed even when
			// the value equals the base seed; only unpatched cells get
			// the derived seed.
			seedPinned = seedPinned || pinsSeed[a][idx[a]]
		}
		id := strings.Join(labels, "/")
		if !seedPinned {
			spec.Seed = DeriveSeed(sw.Base.Seed, id)
		}
		if spec.Name == "" {
			spec.Name = sw.Name + "/" + id
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: cell %q: %w", id, err)
		}
		cells = append(cells, Cell{ID: id, Spec: spec})

		// Odometer increment, last axis fastest.
		a := len(idx) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(sw.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			return cells, nil
		}
	}
}

// SeriesPoint is one eval-loss sample in a cell report: virtual time
// in seconds, probe-worker step, loss value.
type SeriesPoint struct {
	// T is the virtual time of the sample, seconds.
	T float64 `json:"t_s"`
	// Step is the probe worker's iteration number.
	Step int `json:"step"`
	// Loss is the held-out evaluation loss.
	Loss float64 `json:"loss"`
}

// CellReport is the machine-readable outcome of one cell. Every field
// derives from virtual time, counters or the spec — never from host
// state — so reports regenerate byte-identically (DESIGN.md §4.4).
type CellReport struct {
	// Cell is the grid-point id within its sweep.
	Cell string `json:"cell"`
	// Spec is the fully-resolved scenario the cell ran.
	Spec Spec `json:"spec"`
	// DurationS is the virtual time at completion, seconds.
	DurationS float64 `json:"duration_s"`
	// Iterations is the total completed across workers.
	Iterations int `json:"iterations"`
	// MinWorkerIterations is the slowest worker's count.
	MinWorkerIterations int `json:"min_worker_iterations"`
	// MeanIterMS is the mean per-iteration duration across workers
	// (two warm-up iterations skipped), milliseconds.
	MeanIterMS float64 `json:"mean_iter_ms"`
	// FinalEvalLoss is the probe worker's last held-out loss (-1 when
	// nothing was recorded).
	FinalEvalLoss float64 `json:"final_eval_loss"`
	// MinEvalLoss is the smallest held-out loss seen (-1 when empty).
	MinEvalLoss float64 `json:"min_eval_loss"`
	// TargetLoss is the time-to-target eval-loss level.
	TargetLoss float64 `json:"target_loss"`
	// TimeToTargetS is the first virtual time (seconds) the eval loss
	// reached TargetLoss, or -1 if it never did.
	TimeToTargetS float64 `json:"time_to_target_s"`
	// MaxGap is the largest observed iteration gap between any pair.
	MaxGap int `json:"max_gap"`
	// Protocol holds every protocol counter, summed over workers.
	Protocol core.Stats `json:"protocol"`
	// Net holds every modeled-network counter.
	Net netsim.Stats `json:"net"`
	// Eval is the probe worker's held-out loss series.
	Eval []SeriesPoint `json:"eval"`
}

// buildReport summarizes one finished run.
func buildReport(cellID string, spec Spec, res *cluster.Result) CellReport {
	rep := CellReport{
		Cell:                cellID,
		Spec:                spec,
		DurationS:           res.Duration.Seconds(),
		Iterations:          res.Metrics.Iterations(),
		MinWorkerIterations: res.Metrics.MinWorkerIterations(),
		MeanIterMS:          float64(res.Metrics.MeanIterDurationAll(2)) / float64(time.Millisecond),
		FinalEvalLoss:       res.Metrics.Eval.Last(-1),
		MinEvalLoss:         res.Metrics.Eval.MinValue(-1),
		TargetLoss:          spec.ResolvedTargetLoss(),
		TimeToTargetS:       -1,
		MaxGap:              res.Engine.Gaps().MaxGapOverall(),
		Protocol:            res.Engine.Stats(),
		Net:                 res.Fabric.Stats(),
	}
	if tt, ok := res.Metrics.Eval.TimeToValue(rep.TargetLoss); ok {
		rep.TimeToTargetS = tt.Seconds()
	}
	rep.Eval = make([]SeriesPoint, 0, len(res.Metrics.Eval.Points))
	for _, p := range res.Metrics.Eval.Points {
		rep.Eval = append(rep.Eval, SeriesPoint{T: p.Time.Seconds(), Step: p.Step, Loss: p.Value})
	}
	return rep
}

// JSON renders the report as indented canonical JSON (the per-cell
// artifact hopsweep writes).
func (r CellReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CellResult pairs a cell with its report and the report's canonical
// JSON encoding.
type CellResult struct {
	// ID is the cell's grid-point id.
	ID string
	// Report is the structured outcome.
	Report CellReport
	// JSON is Report.JSON(), computed once so writers and determinism
	// checks share the exact bytes.
	JSON []byte
}

// SweepResult is every cell's outcome, in deterministic grid order
// regardless of the execution interleaving.
type SweepResult struct {
	// Name is the sweep's name.
	Name string
	// Cells are the per-cell results in grid order.
	Cells []CellResult
}

// Run expands the sweep and executes every cell, fanning out across at
// most width goroutines (width <= 0 means one per cell). Each cell is
// a single-threaded deterministic simulation; cells never share
// mutable state, so the per-cell reports — and the aggregate — are
// byte-identical at any width and across repeated runs.
func (sw Sweep) Run(width int) (*SweepResult, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	if width <= 0 || width > len(cells) {
		width = len(cells)
	}
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, width)
	done := make(chan int, len(cells))
	for i, c := range cells {
		i, c := i, c
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; done <- i }()
			res, err := c.Spec.Run()
			if err != nil {
				errs[i] = err
				return
			}
			rep := buildReport(c.ID, c.Spec, res)
			js, err := rep.JSON()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = CellResult{ID: c.ID, Report: rep, JSON: js}
		}()
	}
	for range cells {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: cell %q: %w", cells[i].ID, err)
		}
	}
	return &SweepResult{Name: sw.Name, Cells: results}, nil
}

// RenderTable writes the aggregate table: one row per cell in grid
// order with the headline metrics.
func (r *SweepResult) RenderTable(w io.Writer) {
	width := len("cell")
	for _, c := range r.Cells {
		if len(c.ID) > width {
			width = len(c.ID)
		}
	}
	fmt.Fprintf(w, "%-*s  %8s  %12s  %10s  %10s  %14s\n",
		width, "cell", "iters", "mean-iter-ms", "final-loss", "min-loss", "time-to-target")
	for _, c := range r.Cells {
		ttt := "-"
		if c.Report.TimeToTargetS >= 0 {
			ttt = fmt.Sprintf("%.0fs", c.Report.TimeToTargetS)
		}
		fmt.Fprintf(w, "%-*s  %8d  %12.2f  %10.4f  %10.4f  %14s\n",
			width, c.ID, c.Report.Iterations, c.Report.MeanIterMS,
			c.Report.FinalEvalLoss, c.Report.MinEvalLoss, ttt)
	}
}

// AggregateJSON renders every cell report as one JSON document
// ({"sweep": name, "cells": [...]}), byte-identical across runs.
func (r *SweepResult) AggregateJSON() ([]byte, error) {
	agg := struct {
		Sweep string       `json:"sweep"`
		Cells []CellReport `json:"cells"`
	}{Sweep: r.Name}
	for _, c := range r.Cells {
		agg.Cells = append(agg.Cells, c.Report)
	}
	return json.MarshalIndent(agg, "", "  ")
}

// Cell returns a named cell's report, or false if the sweep has no
// such cell.
func (r *SweepResult) Cell(id string) (CellReport, bool) {
	for _, c := range r.Cells {
		if c.ID == id {
			return c.Report, true
		}
	}
	return CellReport{}, false
}
