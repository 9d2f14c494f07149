package device

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/quantum"
	"repro/internal/transpile"
)

// TestCountsDoNotDependOnRows runs jobs with the engine's passes on the
// vector unit and on the Go kernels — the one-qubit rows, the CZ sign flip,
// the qubit-density reduction and the sampler's probability pass all follow
// the one switch: the pinned wide job down the tree and down the replay
// fallback, and a transpiled 5-qubit ansatz, read the same counts over the
// same leaves either way. The two kernels of each pass write the same bits,
// so a job's histogram does not depend on the host.
func TestCountsDoNotDependOnRows(t *testing.T) {
	if !vectorRows {
		t.Skip("no AVX2 on this host: the Go rows are the only rows")
	}
	defer func() { vectorRows = true }()
	ansatz, _, err := commissionedQPU(1).Epoch().Prepare(freshAngleAnsatze(1, 5)[0], transpile.PlaceFidelityAware, new(transpile.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []struct {
		name   string
		cj     *compiledJob
		budget int
		shots  int
	}{
		{"wide tree", pinnedWideJob(t), defaultBranchStateBudget, 50},
		{"wide replay", pinnedWideJob(t), 1, 50},
		{"ansatz", &ansatz.cj, defaultBranchStateBudget, 200},
	}
	for _, job := range jobs {
		job.cj.stateBudget = job.budget
		var counts [2]map[int]int
		var leaves [2]int
		for i, on := range []bool{true, false} {
			vectorRows = on
			want := "go"
			if on {
				want = "avx2"
			}
			if got := quantum.RowKernel(); got != want {
				t.Fatalf("quantum.RowKernel() = %q after switching the rows to %s", got, want)
			}
			c, stats, err := job.cj.runBranchTree(job.shots, rand.New(rand.NewSource(pinnedRNGSeed)))
			if err != nil {
				t.Fatal(err)
			}
			counts[i], leaves[i] = c, stats.leaves
		}
		if !reflect.DeepEqual(counts[0], counts[1]) || leaves[0] != leaves[1] {
			t.Errorf("%s: vector rows read %v over %d leaves, Go rows %v over %d", job.name, counts[0], leaves[0], counts[1], leaves[1])
		}
		t.Logf("%s: %d outcomes over %d leaves on both row kernels", job.name, len(counts[0]), leaves[0])
	}
}
