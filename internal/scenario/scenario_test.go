package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"hop/internal/hetero"
	"hop/internal/netsim"
)

// fullSpec exercises every axis the grammar names.
func fullSpec() Spec {
	return Spec{
		Name:     "kitchen-sink",
		Workload: "svm",
		Topology: Topology{Kind: "double-ring", Workers: 8, Machines: 2},
		Protocol: Protocol{
			Mode:        "standard",
			MaxIG:       4,
			Backup:      1,
			SendCheck:   true,
			SkipMaxJump: 10,
		},
		Hetero: Hetero{Kind: "det", Factor: 4, Workers: []int{0, 3}},
		Net: Net{
			InterBandwidth:   12.5e6,
			MachineBandwidth: []float64{0, 5e6},
			Burst:            &Burst{Factor: 8, MeanOn: Duration(time.Second), MeanOff: Duration(5 * time.Second)},
		},
		Compression:  "topk:0.25",
		PayloadBytes: 1 << 20,
		ComputeBase:  Duration(50 * time.Millisecond),
		Deadline:     Duration(20 * time.Second),
		EvalEvery:    5,
		TargetLoss:   0.5,
		Seed:         7,
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := fullSpec()
	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(js)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed the spec:\nhave %+v\nwant %+v", back, s)
	}
	js2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, js2) {
		t.Errorf("re-marshal not byte-identical:\n%s\nvs\n%s", js, js2)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"workload": "cnn", "wrokload": "oops", "deadline": "1s"}`,
		`{"topology": {"knid": "ring"}}`,
		// Keys of the old grammar: each is now a constant, so a spec
		// still setting one must fail instead of running the default.
		`{"topology": {"kind": "expander", "degree": 6}}`,
		`{"topology": {"kind": "expander", "seed": 9}}`,
		`{"protocol": {"mode": "prague", "group_size": 2, "group_seed": 9}}`,
		`{"protocol": {"staleness": 2, "stale_weighting": "uniform"}}`,
		`{"protocol": {"max_ig": 2, "skip_max_jump": 4, "skip_trigger": 3}}`,
		`{"net": {"inter_latency": "1ms"}}`,
		`{"net": {"intra_bandwidth": 1e9}}`,
		`{"net": {"intra_latency": "1ms"}}`,
		`{"net": {"burst": {"machines": [1], "factor": 10, "mean_on": "1s", "mean_off": "1s"}}}`,
		`{"net": {"burst": {"seed": 9, "factor": 10, "mean_on": "1s", "mean_off": "1s"}}}`,
		`{"ack_bytes": 128}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("unknown field accepted: %s", doc)
		}
	}
}

func TestDurationForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1.5s"`), &d); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Errorf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`250`), &d); err != nil || time.Duration(d) != 250 {
		t.Errorf("numeric form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Error("bad duration accepted")
	}
	out, err := json.Marshal(Duration(2 * time.Second))
	if err != nil || string(out) != `"2s"` {
		t.Errorf("marshal: %s %v", out, err)
	}
}

// TestResolveMatchesRegistryConventions pins the seed layering and
// defaults the experiment registry has always used, so figures
// expressed as specs reproduce their historical output.
func TestResolveMatchesRegistryConventions(t *testing.T) {
	s := Spec{
		Workload: "cnn",
		Topology: Topology{Kind: "ring-based"},
		Hetero:   Hetero{Kind: "random"},
		Deadline: Duration(500 * time.Second),
		Seed:     3,
	}
	opts, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Core.Seed != 103 || opts.Seed != 203 {
		t.Errorf("seed layering: core=%d cluster=%d, want 103/203", opts.Core.Seed, opts.Seed)
	}
	if opts.Core.Graph.N() != 16 || opts.Core.Graph.NumMachines() != 4 {
		t.Errorf("default topology %v", opts.Core.Graph)
	}
	if opts.Core.Staleness != 0 {
		t.Errorf("staleness default %d, want 0 (disabled)", opts.Core.Staleness)
	}
	if opts.Compute.Base != 4*time.Second || opts.PayloadBytes != 37<<20 || opts.EvalEvery != 5 {
		t.Errorf("cnn defaults: base=%v payload=%d evalEvery=%d", opts.Compute.Base, opts.PayloadBytes, opts.EvalEvery)
	}
	slow, ok := opts.Compute.Slow.(hetero.Random)
	if !ok || slow.Fact != 6 || slow.Prob != 1.0/16 {
		t.Errorf("random slowdown defaults: %+v", opts.Compute.Slow)
	}
	if !opts.Net.IsZero() {
		t.Errorf("unset net should stay zero (cluster substitutes 1GbE), got %+v", opts.Net)
	}
}

func TestResolveProtocolAxes(t *testing.T) {
	s := fullSpec()
	opts, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c := opts.Core
	if c.MaxIG != 4 || c.Backup != 1 || !c.SendCheck {
		t.Errorf("protocol: %+v", c)
	}
	if c.MaxJump != 10 {
		t.Errorf("max jump: %d", c.MaxJump)
	}
	det, ok := opts.Compute.Slow.(hetero.Deterministic)
	if !ok || det.Factors[0] != 4 || det.Factors[3] != 4 || len(det.Factors) != 2 {
		t.Errorf("det slowdown: %+v", opts.Compute.Slow)
	}
	if opts.Net.Inter.Bandwidth != 12.5e6 || opts.Net.Inter.Latency != netsim.Default1GbE().Inter.Latency ||
		opts.Net.Intra != netsim.Default1GbE().Intra {
		t.Errorf("net overrides: %+v", opts.Net)
	}
	if opts.Net.Burst == nil || opts.Net.Burst.Factor != 8 || opts.Net.Burst.Seed != 300+7 {
		t.Errorf("burst: %+v", opts.Net.Burst)
	}
	// topk:0.25 keeps a quarter of the coordinates, at 4 of 8 bytes each.
	if opts.PayloadBytes != (1<<20)/4*4/8 {
		t.Errorf("compressed payload %d, want %d", opts.PayloadBytes, (1<<20)/4*4/8)
	}
	if c.Compression.Ratio != 0.25 {
		t.Errorf("compression carried: %+v", c.Compression)
	}
	if s.ResolvedTargetLoss() != 0.5 {
		t.Errorf("target loss %g", s.ResolvedTargetLoss())
	}
}

func TestResolveStaleness(t *testing.T) {
	s := Spec{
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 8, Machines: 2},
		Protocol: Protocol{MaxIG: 8, Staleness: 5},
		Deadline: Duration(5 * time.Second),
	}
	opts, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Core.Staleness != 5 {
		t.Errorf("staleness: %+v", opts.Core)
	}
}

func TestResolveErrors(t *testing.T) {
	bad := []Spec{
		{Workload: "transformer", Deadline: Duration(time.Second)},
		{Topology: Topology{Kind: "torus"}, Deadline: Duration(time.Second)},
		{Topology: Topology{Kind: "ring", Workers: 4, Machines: 9}, Deadline: Duration(time.Second)},
		{Hetero: Hetero{Kind: "cosmic"}, Deadline: Duration(time.Second)},
		{Hetero: Hetero{Kind: "det", Workers: []int{99}}, Deadline: Duration(time.Second)},
		{Protocol: Protocol{Mode: "quantum"}, Deadline: Duration(time.Second)},
		{Protocol: Protocol{MaxIG: 2, SkipMaxJump: -1}, Deadline: Duration(time.Second)},
		{Compression: "gzip", Deadline: Duration(time.Second)},
		{Net: Net{Burst: &Burst{Factor: 10}}, Deadline: Duration(time.Second)},                       // no dwell means
		{Net: Net{Burst: &Burst{Factor: 1, MeanOn: 1, MeanOff: 1}}, Deadline: Duration(time.Second)}, // factor <= 1
		{}, // no deadline, no max_iter
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should not validate: %+v", i, s)
		}
	}
}

// TestBuildSeededNeverPanics: every topology kind at every small
// worker and machine count either builds a graph that validates or
// returns an error; a count its generator cannot take (one worker on a
// ring, an odd ring-based, a double-ring not divisible by 4) is a named
// error, not a panic.
func TestBuildSeededNeverPanics(t *testing.T) {
	kinds := []string{"", "ring", "ring-based", "double-ring", "complete", "star", "chain",
		"directed-ring", "hier-ring", "hier-allreduce", "expander", "setting1", "setting2", "setting3"}
	for _, kind := range kinds {
		for n := 1; n <= 9; n++ {
			for m := 1; m <= 3; m++ {
				top := Topology{Kind: kind, Workers: n, Machines: m}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%+v: panic: %v", top, r)
						}
					}()
					g, err := top.BuildSeeded(1)
					if err != nil {
						return
					}
					if err := g.Validate(); err != nil {
						t.Errorf("%+v: %v", top, err)
					}
				}()
			}
		}
	}
}

// TestValidateRejectsWhatRunRejects: the core protocol constraints hold
// for every mode at spec validation, with the error Run would return —
// hopsweep validates every cell up front, so a spec Validate accepts
// must not die at engine construction.
func TestValidateRejectsWhatRunRejects(t *testing.T) {
	cases := []struct {
		name     string
		protocol Protocol
	}{
		{"backup without max_ig", Protocol{Backup: 1}},
		{"skip without max_ig", Protocol{SkipMaxJump: 4}},
		{"staleness with backup", Protocol{MaxIG: 4, Backup: 1, Staleness: 2}},
		{"notify-ack with max_ig", Protocol{Mode: "notify-ack", MaxIG: 4}},
		{"notify-ack with send_check", Protocol{Mode: "notify-ack", SendCheck: true}},
	}
	for _, c := range cases {
		spec := Spec{
			Workload: "quadratic",
			Topology: Topology{Kind: "ring", Workers: 4},
			Protocol: c.protocol,
			MaxIter:  5,
		}
		verr := spec.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepted the spec", c.name)
			continue
		}
		if _, rerr := spec.Run(); rerr == nil || rerr.Error() != verr.Error() {
			t.Errorf("%s: Validate says %q, Run says %v", c.name, verr, rerr)
		}
	}
}

func TestWorkloadDefaultsDefined(t *testing.T) {
	for _, w := range Workloads() {
		if w.Name == "" || w.NewTrainer == nil || w.ComputeBase <= 0 || w.PayloadBytes <= 0 ||
			w.EvalEvery <= 0 || w.TargetLoss <= 0 {
			t.Errorf("incomplete workload %+v", w)
		}
		tr := w.NewTrainer()
		if len(tr.Params()) == 0 {
			t.Errorf("%s: empty trainer", w.Name)
		}
	}
	if _, err := WorkloadByName(""); err != nil {
		t.Errorf("empty workload should default to cnn: %v", err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWireRatio(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want float64
	}{
		{"none", 1}, {"", 1}, {"float32", 0.5}, {"topk:0.1", 0.05}, {"topk", 0.05}, {"topk:0.5", 0.25},
	} {
		s := Spec{Workload: "quadratic", Topology: Topology{Kind: "ring", Workers: 4, Machines: 2},
			Compression: tc.spec, Deadline: Duration(time.Second)}
		opts, err := s.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		want := int(math.Ceil(float64(1<<16) * tc.want))
		if opts.PayloadBytes != want {
			t.Errorf("%s: payload %d, want %d", tc.spec, opts.PayloadBytes, want)
		}
	}
}

// TestSpecRunEndToEnd runs a fast quadratic scenario and sanity-checks
// the result surface the sweep reports read.
func TestSpecRunEndToEnd(t *testing.T) {
	s := Spec{
		Name:     "smoke",
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 2},
		Deadline: Duration(10 * time.Second),
		Seed:     1,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Iterations() == 0 {
		t.Error("no iterations")
	}
	if res.Metrics.Eval.Last(-1) < 0 {
		t.Error("no eval samples")
	}
	rep := buildReport("smoke", s, res)
	if rep.Iterations != res.Metrics.Iterations() || rep.DurationS <= 0 || len(rep.Eval) == 0 {
		t.Errorf("report %+v", rep)
	}
}
