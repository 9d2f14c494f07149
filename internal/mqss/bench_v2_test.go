package mqss

// The v2 API throughput harness: the same paced-twin workload as the fleet
// bench's single-device row (256 GHZ jobs, 2 ms control-electronics round
// trip, 4 workers), but driven through the v2 async surface — POST
// /api/v2/jobs (202) for every job up front, then one watch stream per job
// until its terminal event. The row lands in BENCH_fleet.json next to the
// in-process fleet rows, so the artifact answers "what does the remote
// async access model cost on top of routed dispatch" across PRs.
//
// Run order matters for the artifact: TestFleetBenchArtifact (internal/
// fleet) rewrites BENCH_fleet.json from scratch; this test then merges its
// row in. CI runs them in that order.

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/telemetry"
)

var (
	v2Bench    = flag.Bool("v2.bench", false, "run the v2 submit+watch bench and merge its row into the fleet artifact")
	v2BenchOut = flag.String("v2.bench.out", "BENCH_fleet.json", "fleet bench artifact to merge the v2 row into")
)

// v2BenchRow is the artifact row recorded under "v2_submit_watch". The
// numbers are medians over Reruns independent loads; SpreadPct is
// (max-min)/median of the throughput samples.
type v2BenchRow struct {
	Harness    string  `json:"harness"`
	Jobs       int     `json:"jobs"`
	Workers    int     `json:"workers_per_device"`
	Reruns     int     `json:"reruns"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	SpreadPct  float64 `json:"spread_pct"`
}

func TestV2SubmitWatchBenchArtifact(t *testing.T) {
	if !*v2Bench {
		t.Skip("pass -v2.bench to run the v2 submit+watch harness")
	}
	const (
		jobs        = 256
		workers     = 4
		execLatency = 2 * time.Millisecond
		// Median of 3 loads, matching the fleet artifact's rerun policy so
		// the v2-vs-routed ratio below compares medians on both sides.
		reruns = 3
	)
	qpu, err := device.New(device.Config{Name: "bench-v2", Rows: 4, Cols: 5, Seed: 1, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	qpu.SetExecLatency(execLatency)
	f := fleet.New(fleet.PolicyLeastLoaded, nil)
	defer f.Stop()
	if err := f.AddDevice("bench-v2", qdmi.NewDevice(qpu, nil), workers); err != nil {
		t.Fatal(err)
	}
	server := NewFleetServer(f)
	srv := httptest.NewServer(server)
	defer srv.Close()
	// One watch stream per in-flight job needs more conns than the default
	// two per host.
	srv.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = jobs

	circs := []*circuit.Circuit{circuit.GHZ(3), circuit.GHZ(4), circuit.GHZ(5), circuit.GHZ(6)}
	c := NewRemoteClient(srv.URL, srv.Client())
	ctx := t.Context()

	runLoad := func() (jps, p50, p95 float64) {
		start := time.Now()
		handles := make([]*JobHandle, jobs)
		starts := make([]time.Time, jobs)
		for i := 0; i < jobs; i++ {
			h, err := c.Submit(ctx, SubmitRequest{
				Circuit: circs[i%len(circs)], Shots: 10, User: "bench-v2",
			}, "")
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
			starts[i] = time.Now()
		}
		latencies := make([]float64, jobs)
		var wg sync.WaitGroup
		var mu sync.Mutex
		failures := 0
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *JobHandle) {
				defer wg.Done()
				job, err := h.Watch(ctx, nil)
				lat := float64(time.Since(starts[i]).Microseconds()) / 1000
				mu.Lock()
				defer mu.Unlock()
				latencies[i] = lat
				if err != nil || job.State != StateDone {
					failures++
				}
			}(i, h)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if failures > 0 {
			t.Fatalf("%d/%d v2 jobs failed", failures, jobs)
		}
		sort.Float64s(latencies)
		return float64(jobs) / elapsed.Seconds(), latencies[jobs/2], latencies[jobs*95/100]
	}
	var jpsRuns, p50Runs, p95Runs []float64
	for r := 0; r < reruns; r++ {
		jps, p50, p95 := runLoad()
		jpsRuns = append(jpsRuns, jps)
		p50Runs = append(p50Runs, p50)
		p95Runs = append(p95Runs, p95)
	}
	row := v2BenchRow{
		Harness:    "go test ./internal/mqss -run TestV2SubmitWatchBenchArtifact -v2.bench",
		Jobs:       jobs,
		Workers:    workers,
		Reruns:     reruns,
		JobsPerSec: telemetry.Median(jpsRuns),
		P50Ms:      telemetry.Median(p50Runs),
		P95Ms:      telemetry.Median(p95Runs),
		SpreadPct:  telemetry.SpreadPct(jpsRuns),
	}
	t.Logf("v2 submit+watch: median %.0f jobs/s over %d runs (spread %.1f%%), p50 %.2f ms, p95 %.2f ms",
		row.JobsPerSec, reruns, row.SpreadPct, row.P50Ms, row.P95Ms)

	// Merge into the fleet artifact without disturbing its rows.
	art := map[string]interface{}{}
	if data, err := os.ReadFile(*v2BenchOut); err == nil {
		if err := json.Unmarshal(data, &art); err != nil {
			t.Fatalf("parsing %s: %v", *v2BenchOut, err)
		}
	}
	art["v2_submit_watch"] = row
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*v2BenchOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged v2 row into %s", *v2BenchOut)

	// Smoke gate: the async surface must stay in the same league as the
	// in-process single-device dispatch (watch streams + HTTP cost real
	// work; below half the routed throughput something structural broke).
	if results, ok := art["results"].([]interface{}); ok && len(results) > 0 {
		if first, ok := results[0].(map[string]interface{}); ok {
			if base, ok := first["jobs_per_sec"].(float64); ok && base > 0 {
				ratio := row.JobsPerSec / base
				t.Logf("v2-vs-routed single-device ratio: %.2fx", ratio)
				if ratio < 0.5 {
					t.Fatalf("v2 submit+watch throughput regression: %.0f jobs/s vs %.0f routed (%.2fx < 0.5x)",
						row.JobsPerSec, base, ratio)
				}
			}
		}
	}
}
