package durable

// The durability cost harness: the fleet bench's one-device workload
// (GHZ jobs, 2 ms control-electronics round trip, 4 workers) run once
// without a store and once per WAL sync mode, interleaved so machine drift
// hits both sides equally. The "durability" section lands in
// BENCH_fleet.json next to the throughput rows, and the group-commit ratio
// is a release gate: if journaling every transition costs more than 10% of
// one-device throughput, the group-commit path has regressed.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/telemetry"
)

var (
	durableBench    = flag.Bool("durable.bench", false, "run the WAL cost bench and merge its section into the fleet artifact")
	durableBenchOut = flag.String("durable.bench.out", "BENCH_fleet.json", "fleet bench artifact to merge the durability section into")
)

type durabilityRow struct {
	Mode       string  `json:"mode"`
	Reruns     int     `json:"reruns"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	SpreadPct  float64 `json:"spread_pct"`
	// RatioToBaseline is this mode's median throughput over the storeless
	// baseline's; the group row gates the release at >= 0.90.
	RatioToBaseline float64 `json:"ratio_to_baseline"`
}

type durabilitySection struct {
	Harness string          `json:"harness"`
	Jobs    int             `json:"jobs"`
	Workers int             `json:"workers_per_device"`
	Rows    []durabilityRow `json:"rows"`
}

func TestDurabilityBenchArtifact(t *testing.T) {
	if !*durableBench {
		t.Skip("pass -durable.bench to run the WAL cost harness")
	}
	const (
		jobs        = 200
		workers     = 4
		execLatency = 2 * time.Millisecond
		reruns      = 3
	)
	circs := []*circuit.Circuit{circuit.GHZ(3), circuit.GHZ(4), circuit.GHZ(5), circuit.GHZ(6)}

	// One timed load against a fresh one-device fleet; mode "" means no store.
	runLoad := func(mode SyncMode) float64 {
		qpu, err := device.New(device.Config{Name: "bench-wal", Rows: 4, Cols: 5, Seed: 1, DigitalTwin: true})
		if err != nil {
			t.Fatal(err)
		}
		qpu.SetExecLatency(execLatency)
		f := fleet.New(fleet.PolicyBestFidelity, nil)
		if err := f.AddDevice("bench-wal", qdmi.NewDevice(qpu, nil), workers); err != nil {
			t.Fatal(err)
		}
		if mode != "" {
			st, _, err := Open(t.TempDir(), Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			f.AttachStore(st)
		}
		defer f.Stop()

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		start := time.Now()
		ids := make([]int, jobs)
		for i := 0; i < jobs; i++ {
			id, err := f.Submit(qrm.Request{Circuit: circs[i%len(circs)], Shots: 10, User: "bench-wal"}, fleet.SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		for _, id := range ids {
			j, err := f.WaitContext(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if j.Status != fleet.JobDone {
				t.Fatalf("job %d ended %s: %s", id, j.Status, j.Error)
			}
		}
		return float64(jobs) / time.Since(start).Seconds()
	}

	modes := []SyncMode{"", SyncGroup, SyncAlways, SyncOff}
	samples := map[SyncMode][]float64{}
	for r := 0; r < reruns; r++ {
		for _, mode := range modes {
			samples[mode] = append(samples[mode], runLoad(mode))
		}
	}
	baseline := telemetry.Median(samples[""])
	label := func(mode SyncMode) string {
		if mode == "" {
			return "none (baseline)"
		}
		return string(mode)
	}
	section := durabilitySection{
		Harness: "go test ./internal/durable -run TestDurabilityBenchArtifact -durable.bench",
		Jobs:    jobs,
		Workers: workers,
	}
	var groupRatio float64
	for _, mode := range modes {
		row := durabilityRow{
			Mode:            label(mode),
			Reruns:          reruns,
			JobsPerSec:      telemetry.Median(samples[mode]),
			SpreadPct:       telemetry.SpreadPct(samples[mode]),
			RatioToBaseline: telemetry.Median(samples[mode]) / baseline,
		}
		if mode == SyncGroup {
			groupRatio = row.RatioToBaseline
		}
		section.Rows = append(section.Rows, row)
		t.Logf("wal=%-16s median %7.0f jobs/s over %d runs (spread %4.1f%%, %.2fx baseline)",
			row.Mode, row.JobsPerSec, reruns, row.SpreadPct, row.RatioToBaseline)
	}

	// Merge into the fleet artifact without disturbing its rows.
	art := map[string]interface{}{}
	if data, err := os.ReadFile(*durableBenchOut); err == nil {
		if err := json.Unmarshal(data, &art); err != nil {
			t.Fatalf("parsing %s: %v", *durableBenchOut, err)
		}
	}
	art["durability"] = section
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*durableBenchOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged durability section into %s", *durableBenchOut)

	// The release gate: group commit must keep >= 90% of storeless
	// throughput. (SyncAlways is allowed to cost more — that is its deal.)
	if groupRatio < 0.90 {
		t.Fatalf("wal-sync=group costs too much: %.2fx baseline, gate >= 0.90x", groupRatio)
	}
}
