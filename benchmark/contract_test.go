package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hop"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestEveryCommittedSpecValidates(t *testing.T) {
	files, err := fs.Glob(specFiles, "workloads/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(workloads) {
		t.Fatalf("%d spec files for %d workloads: %v", len(files), len(workloads), files)
	}
	for _, w := range workloads {
		data, err := specFiles.ReadFile("workloads/" + w.Name + ".json")
		if err != nil {
			t.Fatalf("%s: no committed spec: %v", w.Name, err)
		}
		spec, err := hop.ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if spec.Name != w.Name {
			t.Errorf("%s.json names itself %q", w.Name, spec.Name)
		}
		if spec.MaxIter <= 1 || spec.Topology.Workers == 0 {
			t.Errorf("%s: the harness needs explicit max_iter > 1 and workers, got %d and %d", w.Name, spec.MaxIter, spec.Topology.Workers)
		}
		if w.Live {
			if _, err := hop.ResolveScenarioLive(spec, hop.ScenarioLiveOptions{TimeScale: w.TimeScale, Logger: quiet{}}); err != nil {
				t.Errorf("%s: live resolve: %v", w.Name, err)
			}
		}
		// --seed reaches the program only through the spec.
		if seeded, err := w.Spec(8); err != nil || seeded.Seed != 8 {
			t.Errorf("%s: Spec(8) = seed %d, %v", w.Name, seeded.Seed, err)
		}
	}
}

// benchmarkJSON mirrors the driver's BENCHMARK.json schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is the driver's copy of the tables in metrics.go and
// workloads.go; a name, unit, direction or bound changed in one place
// only fails here.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc benchmarkJSON
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if got := strings.Join(doc.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command = %q", got)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}

	used := map[string]bool{}
	checkName := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q does not match %v", kind, name, unit, unitRE)
		}
		if used[name] {
			t.Errorf("name %q used twice", name)
		}
		used[name] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := doc.Workloads[i]
		checkName("workload", w.Name, "")
		if d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, d.Name, d.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		checkName("end-to-end metric", m.Name, m.Unit)
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != string(m.Better) || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == Lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		d := doc.PerLayer[i]
		checkName("per-layer metric", l.Name, l.Unit)
		if d.Name != l.Name || d.Unit != l.Unit || d.Better != string(l.Better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, d, l)
		}
	}
}

// The driver's line carries exactly the declared metrics — all of one
// kind, none of the other — whatever the workload measured.
func TestDriverLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	res := &WorkloadResult{
		Name:      workloads[0].Name,
		Attempted: 100,
		EndToEnd:  map[string]Summary{"run_s": summarize([]float64{5.5, 5.6, 5.4})},
		Layers:    map[string]float64{"model.step_us": 41.2},
	}
	for _, layers := range []bool{false, true} {
		var out bytes.Buffer
		if err := res.printDriverLine(&out, layers); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(&out)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("driver line: %v", err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted != 100 || line.Failed == nil || *line.Failed != 0 {
			t.Fatalf("driver line header: %+v", line)
		}
		want := map[string]string{}
		if layers {
			for _, l := range perLayer {
				want[l.Name] = l.Unit
			}
		} else {
			for _, m := range endToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(line.Metrics) != len(want) {
			t.Fatalf("layers=%v: %d metrics on the line, want %d", layers, len(line.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := line.Metrics[name]; !ok || m.Unit != unit || m.Value == nil {
				t.Errorf("layers=%v: metric %s missing or mis-labelled: %+v", layers, name, m)
			}
		}
	}
	if v := res.EndToEnd["run_s"].Median; v != 5.5 {
		t.Fatalf("median of the repetitions = %v, want 5.5", v)
	}
}
