package device

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var (
	simBench    = flag.Bool("sim.bench", false, "run the execution-engine bench artifact test (writes machine-readable results)")
	simBenchOut = flag.String("sim.bench.out", "BENCH_sim.json", "output path for the sim bench artifact")
)

// checkedInSimBench is the repository's artifact, seen from this package.
const checkedInSimBench = "../../BENCH_sim.json"

// TestSimBenchArtifact measures the naive per-shot loop against the
// compiled execution engine and writes BENCH_sim.json. Gated behind
// -sim.bench so the regular test run stays timing-free; CI runs it as the
// sim-bench smoke step and fails loudly if noiseless jobs drop below 3x
// the naive loop or noisy jobs below 6x.
//
// It also fails if a noisy row's branch_leaves_per_shot differs from the
// checked-in artifact: the rows run fixed circuits on fixed seeds, so the
// leaf counts repeat exactly, and a change that moves one has altered the
// tree — which shots branch where — not its cost. Such a change is made on
// purpose or not at all; on purpose, it regenerates the artifact.
func TestSimBenchArtifact(t *testing.T) {
	if !*simBench {
		t.Skip("pass -sim.bench to run the execution-engine bench harness")
	}
	// Read before the run writes: -sim.bench.out may name the same file.
	var checkedIn SimBenchArtifact
	if data, err := os.ReadFile(checkedInSimBench); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &checkedIn); err != nil {
		t.Fatalf("%s: %v", checkedInSimBench, err)
	}
	art, err := RunSimBench(SimBenchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range art.Rows {
		t.Logf("%s: naive %.0f jobs/s -> compiled %.0f jobs/s (%.1fx, median of %d, spread %.1f%%); compiled p50 %.3f ms, p95 %.3f ms; leaves/shot %.3f",
			row.Name, row.NaiveJobsPerSec, row.CompiledJobsPerSec, row.Speedup, row.Reruns, row.SpreadPct,
			row.CompiledP50Ms, row.CompiledP95Ms, row.BranchLeavesPerShot)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*simBenchOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (noiseless %.1fx, noisy %.1fx)", *simBenchOut, art.SpeedupNoiseless, art.SpeedupNoisy)
	leaves := map[string]float64{}
	for _, row := range checkedIn.Rows {
		leaves[row.Name] = row.BranchLeavesPerShot
	}
	for _, row := range art.Rows {
		if want, ok := leaves[row.Name]; row.Noisy && (!ok || row.BranchLeavesPerShot != want) {
			t.Errorf("%s: branch_leaves_per_shot = %v, checked-in %s says %v — the trajectory tree itself changed",
				row.Name, row.BranchLeavesPerShot, checkedInSimBench, want)
		}
	}
	if art.SpeedupNoiseless < 3 {
		t.Fatalf("execution-engine regression: noiseless jobs %.2fx over naive loop, want >= 3x",
			art.SpeedupNoiseless)
	}
	if art.SpeedupNoisy < 6 {
		t.Fatalf("execution-engine regression: noisy jobs %.2fx over naive loop, want >= 6x",
			art.SpeedupNoisy)
	}
}
