package main

import (
	"math"
	"regexp"
	"testing"

	"repro/bench/e2e"
)

// BENCHMARK.json is the contract with the driver; these are its limits.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(e2e.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code; the contract allows 2..8", n, len(e2e.Workloads))
	}
	for i, w := range spec.Workloads {
		use("workload", w.Name)
		if w.Name != e2e.Workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, e2e.Workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1..128", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end needs {"name": "setup_s", "unit": "s", "better": "lower"}`)
	}
	for _, m := range append(append([]Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

func TestReconcileUsesTheKeyedRungOnAKeyedWorkload(t *testing.T) {
	m := map[string]float64{
		"job_ms_p50": 3, "client.post_ms_p50": 2.5,
		"mqss.submit_handler_us_p50": 400, "mqss.submit_handler_keyed_us_p50": 1500,
	}
	reconcile(e2e.WorkloadByName("durable-keyed"), m)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(m["client.unattributed_ms"], 1.5) || !near(m["mqss.http_overhead_ms_p50"], 1) {
		t.Errorf("keyed: unattributed %g overhead %g, want 1.5 and 1", m["client.unattributed_ms"], m["mqss.http_overhead_ms_p50"])
	}
	reconcile(e2e.WorkloadByName("hybrid-loop"), m)
	if !near(m["client.unattributed_ms"], 2.6) {
		t.Errorf("unkeyed: unattributed %g, want 2.6", m["client.unattributed_ms"])
	}
	bare := map[string]float64{"job_ms_p50": 3}
	reconcile(e2e.WorkloadByName("hybrid-loop"), bare)
	if _, ok := bare["client.unattributed_ms"]; ok {
		t.Error("without the ladder's top rung the row must stay missing")
	}
}
