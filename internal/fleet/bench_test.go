package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/qrm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Fleet throughput harness: the workload is a stream of GHZ jobs against
// twin devices paced at a 2 ms control-electronics round trip — the same
// latency-bound regime as the single-device dispatch benchmarks (E13), so
// jobs/s scaling from 1 to N devices measures exactly what the fleet layer
// adds: device-level parallelism on top of per-device worker pools.

var (
	fleetBench    = flag.Bool("fleet.bench", false, "run the fleet bench artifact test (writes machine-readable results)")
	fleetBenchOut = flag.String("fleet.bench.out", "BENCH_fleet.json", "output path for the fleet bench artifact")
)

const (
	benchWorkersPer = 4
	benchLatency    = 2 * time.Millisecond
	// benchReruns repeats each measured configuration and gates on the
	// median, so one noisy CI run cannot flip the scaling verdict.
	benchReruns = 3
)

// runFleetLoad drives jobs GHZ submissions through a fleet of n paced twin
// devices and returns throughput plus client-observed latency quantiles.
func runFleetLoad(tb testing.TB, devices, jobs int) (jobsPerSec, p50Ms, p95Ms float64) {
	return runFleetLoadTenants(tb, devices, jobs, 1)
}

// runFleetLoadTenants is runFleetLoad with the submissions striped across
// distinct users, exercising the per-tenant WFQ claim path under contention.
func runFleetLoadTenants(tb testing.TB, devices, jobs, tenants int) (jobsPerSec, p50Ms, p95Ms float64) {
	tb.Helper()
	s := New(PolicyLeastLoaded, nil)
	defer s.Stop()
	for i := 0; i < devices; i++ {
		name := fmt.Sprintf("bench-%d", i)
		if err := s.AddDevice(name, mkdev(tb, name, 4, 5, int64(i+1), benchLatency), benchWorkersPer); err != nil {
			tb.Fatal(err)
		}
	}
	circs := []*circuit.Circuit{circuit.GHZ(3), circuit.GHZ(4), circuit.GHZ(5), circuit.GHZ(6)}
	ids := make([]int, 0, jobs)
	starts := make(map[int]time.Time, jobs)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		user := "bench"
		if tenants > 1 {
			user = fmt.Sprintf("bench-%02d", i%tenants)
		}
		id, err := s.Submit(qrm.Request{Circuit: circs[i%len(circs)], Shots: 10, User: user}, SubmitOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		starts[id] = time.Now()
		ids = append(ids, id)
	}
	latencies := make([]float64, 0, jobs)
	// Waited in submission order: a job that finishes ahead of an earlier
	// one is timed when its turn comes, as a caller looping over Wait sees it.
	for _, id := range ids {
		j, err := s.Wait(id)
		if err != nil {
			tb.Errorf("job %d: %v", id, err)
			continue
		}
		if j.Status != JobDone {
			tb.Errorf("job %d: %s (%s)", id, j.Status, j.Error)
			continue
		}
		latencies = append(latencies, float64(time.Since(starts[id]).Microseconds())/1000)
	}
	elapsed := time.Since(start)
	sort.Float64s(latencies)
	q := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return latencies[int(p*float64(len(latencies)-1))]
	}
	return float64(jobs) / elapsed.Seconds(), q(0.50), q(0.95)
}

func benchmarkFleetThroughput(b *testing.B, devices int) {
	const jobsPerRound = 128
	var jps, p50, p95 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jps, p50, p95 = runFleetLoad(b, devices, jobsPerRound)
	}
	b.ReportMetric(jps, "jobs/s")
	b.ReportMetric(p50, "p50-ms")
	b.ReportMetric(p95, "p95-ms")
}

func BenchmarkFleetThroughput1Device(b *testing.B)  { benchmarkFleetThroughput(b, 1) }
func BenchmarkFleetThroughput2Devices(b *testing.B) { benchmarkFleetThroughput(b, 2) }
func BenchmarkFleetThroughput4Devices(b *testing.B) { benchmarkFleetThroughput(b, 4) }

// benchResult is one row of the machine-readable artifact. Throughput and
// latency quantiles are medians over `reruns` independent loads; spread_pct
// records (max-min)/median of the throughput samples as a noise figure.
type benchResult struct {
	Devices    int     `json:"devices"`
	Workers    int     `json:"workers_per_device"`
	Jobs       int     `json:"jobs"`
	Reruns     int     `json:"reruns"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	SpreadPct  float64 `json:"spread_pct"`
}

// tracingResult is the tracing-overhead row: the 4-device workload rerun
// with span recording globally disabled, proving the observability plane
// stays within its throughput budget (docs/OBSERVABILITY.md).
type tracingResult struct {
	TracedJobsPerSec   float64 `json:"traced_jobs_per_sec"`
	UntracedJobsPerSec float64 `json:"untraced_jobs_per_sec"`
	// Ratio is traced/untraced; the release gate requires >= 0.95 (tracing
	// may cost at most 5% of throughput).
	Ratio float64 `json:"ratio"`
}

// tenantsResult is the many-tenant contention row: the 4-device workload
// striped across N distinct users vs the single-user baseline. Weighted-fair
// claiming runs on the hot claim path, so the gate requires the default
// (no rate limit, no shedding) config to keep >= 0.95x of single-tenant
// throughput even with the per-tenant heaps fully fanned out.
type tenantsResult struct {
	Tenants         int     `json:"tenants"`
	SingleTenantJPS float64 `json:"single_tenant_jobs_per_sec"`
	ManyTenantJPS   float64 `json:"many_tenant_jobs_per_sec"`
	// Ratio is many-tenant/single-tenant; the release gate requires >= 0.95.
	Ratio float64 `json:"ratio"`
}

// benchArtifact is the BENCH_fleet.json schema: the perf trajectory record
// tracked across PRs.
type benchArtifact struct {
	Harness       string         `json:"harness"`
	Workload      string         `json:"workload"`
	ExecLatencyMs float64        `json:"exec_latency_ms"`
	Results       []benchResult  `json:"results"`
	Speedup4v1    float64        `json:"speedup_4_devices_over_1"`
	Tracing       *tracingResult `json:"tracing,omitempty"`
	Tenants       *tenantsResult `json:"tenants,omitempty"`
}

// TestFleetBenchArtifact measures jobs/s at 1/2/4 devices and writes
// BENCH_fleet.json. Gated behind -fleet.bench so the regular test run stays
// timing-free; CI runs it as the fleet-bench smoke step and fails loudly if
// device-level scaling collapses below 2x.
func TestFleetBenchArtifact(t *testing.T) {
	if !*fleetBench {
		t.Skip("pass -fleet.bench to run the fleet bench harness")
	}
	const jobs = 256
	art := benchArtifact{
		Harness: "go test ./internal/fleet -run TestFleetBenchArtifact -fleet.bench",
		Workload: fmt.Sprintf("%d GHZ(3..6) jobs x 10 shots, twin devices, %d workers/device",
			jobs, benchWorkersPer),
		ExecLatencyMs: float64(benchLatency.Microseconds()) / 1000,
	}
	for _, n := range []int{1, 2, 4} {
		var jpsRuns, p50Runs, p95Runs []float64
		for r := 0; r < benchReruns; r++ {
			jps, p50, p95 := runFleetLoad(t, n, jobs)
			jpsRuns = append(jpsRuns, jps)
			p50Runs = append(p50Runs, p50)
			p95Runs = append(p95Runs, p95)
		}
		row := benchResult{
			Devices: n, Workers: benchWorkersPer, Jobs: jobs, Reruns: benchReruns,
			JobsPerSec: telemetry.Median(jpsRuns),
			P50Ms:      telemetry.Median(p50Runs),
			P95Ms:      telemetry.Median(p95Runs),
			SpreadPct:  telemetry.SpreadPct(jpsRuns),
		}
		art.Results = append(art.Results, row)
		t.Logf("%d device(s): median %.0f jobs/s over %d runs (spread %.1f%%), p50 %.2f ms, p95 %.2f ms",
			n, row.JobsPerSec, benchReruns, row.SpreadPct, row.P50Ms, row.P95Ms)
	}
	art.Speedup4v1 = art.Results[2].JobsPerSec / art.Results[0].JobsPerSec

	// Tracing-overhead row: the 4-device workload with span recording on vs
	// globally off. Runs are interleaved (traced, untraced, traced, ...) so
	// warmup and thermal drift land on both sides equally — comparing two
	// sequential blocks makes the ratio drift-biased.
	const tracingReruns = 5
	var tracedRuns, untracedRuns, ratios []float64
	defer trace.SetEnabled(true)
	for r := 0; r < tracingReruns; r++ {
		trace.SetEnabled(true)
		traced, _, _ := runFleetLoad(t, 4, jobs)
		tracedRuns = append(tracedRuns, traced)
		trace.SetEnabled(false)
		untraced, _, _ := runFleetLoad(t, 4, jobs)
		untracedRuns = append(untracedRuns, untraced)
		ratios = append(ratios, traced/untraced)
	}
	trace.SetEnabled(true)
	tr := &tracingResult{
		TracedJobsPerSec:   telemetry.Median(tracedRuns),
		UntracedJobsPerSec: telemetry.Median(untracedRuns),
		// Median of per-pair ratios, not ratio of medians: each pair ran
		// back to back, so machine drift cancels within the pair.
		Ratio: telemetry.Median(ratios),
	}
	art.Tracing = tr
	t.Logf("tracing overhead: traced %.0f vs untraced %.0f jobs/s (ratio %.3f)",
		tr.TracedJobsPerSec, tr.UntracedJobsPerSec, tr.Ratio)

	// Many-tenant contention row: the same 4-device workload striped across
	// 64 users vs one. Pairs are interleaved like the tracing row so machine
	// drift cancels within each pair.
	const benchTenants = 64
	var singleRuns, manyRuns, tenantRatios []float64
	for r := 0; r < tracingReruns; r++ {
		many, _, _ := runFleetLoadTenants(t, 4, jobs, benchTenants)
		manyRuns = append(manyRuns, many)
		single, _, _ := runFleetLoadTenants(t, 4, jobs, 1)
		singleRuns = append(singleRuns, single)
		tenantRatios = append(tenantRatios, many/single)
	}
	tn := &tenantsResult{
		Tenants:         benchTenants,
		SingleTenantJPS: telemetry.Median(singleRuns),
		ManyTenantJPS:   telemetry.Median(manyRuns),
		Ratio:           telemetry.Median(tenantRatios),
	}
	art.Tenants = tn
	t.Logf("many-tenant contention: %d tenants %.0f vs single %.0f jobs/s (ratio %.3f)",
		tn.Tenants, tn.ManyTenantJPS, tn.SingleTenantJPS, tn.Ratio)

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*fleetBenchOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (4-vs-1 device speedup: %.2fx)", *fleetBenchOut, art.Speedup4v1)
	if art.Speedup4v1 < 2 {
		t.Fatalf("fleet scaling regression: 4 devices gave %.2fx over 1, want >= 2x", art.Speedup4v1)
	}
	if tr.Ratio < 0.95 {
		t.Fatalf("tracing overhead regression: traced throughput is %.3fx of untraced, want >= 0.95x", tr.Ratio)
	}
	if tn.Ratio < 0.95 {
		t.Fatalf("WFQ contention regression: %d-tenant throughput is %.3fx of single-tenant, want >= 0.95x",
			tn.Tenants, tn.Ratio)
	}
}
