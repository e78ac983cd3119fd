package main

import "testing"

func okRun(mode string, runS float64, fingerprint string) *RunReport {
	return &RunReport{Mode: mode, Workers: 4, Attempted: 400, Steps: 400, RunS: runS, PeakRSSMB: 10,
		VirtIterMs: 100, VirtTimeToTargetS: 2, NetBytes: 4000, Fingerprint: fingerprint}
}

func TestFoldCountsFailuresAndHoldsRepetitionsToOneOutput(t *testing.T) {
	w := Workload{Name: "w", Deterministic: true}

	m := &measurement{w: w, setups: []float64{0.03, 0.05, 0.04},
		reports: []*RunReport{okRun(modeRun, 5, "a"), okRun(modeRun, 7, "a"), okRun(modeRun, 6, "a")}}
	res := m.fold()
	if res.Failed != 0 || res.Attempted != 1200 {
		t.Fatalf("clean runs: failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
	}
	for name, want := range map[string]float64{"run_s": 6, "setup_s": 0.04, "ok_share": 1, "wire_bytes_per_step": 10, "virt_iter_ms": 100} {
		if got := res.EndToEnd[name].Median; got != want {
			t.Errorf("%s median = %v, want %v", name, got, want)
		}
	}
	if got := res.EndToEnd["steps_per_s"].Median; got != 400.0/6 {
		t.Errorf("steps_per_s median = %v", got)
	}

	// One run fails a check: its iterations count as failed, its
	// timings stay out of the medians.
	bad := okRun(modeRun, 1, "a")
	bad.Checks = []string{"sent 3 updates, want 4"}
	m = &measurement{w: w, reports: []*RunReport{okRun(modeRun, 5, "a"), bad}}
	res = m.fold()
	if res.Failed != 400 || res.Attempted != 800 || res.EndToEnd["ok_share"].Median != 0.5 || res.EndToEnd["run_s"].N != 1 {
		t.Fatalf("one failed run: %+v", res)
	}

	// Repetitions (the traced one included) that disagree on outputs
	// that must repeat fail the whole workload.
	m = &measurement{w: w, reports: []*RunReport{okRun(modeRun, 5, "a")}, traced: okRun(modeTraced, 5, "b")}
	m.traced.Trace = &TraceSummary{Iters: 400, RunNs: 5e9, IterNs: 5e9}
	if res = m.fold(); res.Failed != res.Attempted || res.EndToEnd["ok_share"].Median != 0 {
		t.Fatalf("diverging repetitions: failed %d of %d", res.Failed, res.Attempted)
	}

	// Live losses repeat to a tolerance, not to the bit.
	a, b := okRun(modeRun, 5, ""), okRun(modeRun, 5, "")
	a.Losses, b.Losses = []float64{0.3281451150018592}, []float64{0.328145115001859}
	if !sameOutputs(a, b, 1e-9) {
		t.Error("losses one ulp apart must count as the same output")
	}
	b.Losses = []float64{0.3281452}
	if sameOutputs(a, b, 1e-9) {
		t.Error("losses 1e-7 apart must not count as the same output")
	}
}
