package device

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/transpile"
)

// transpiledAnsatz compiles the fresh-angle 5-qubit ansatz of the
// hybrid-loop shape, transpiled onto the commissioned primary.
func transpiledAnsatz(t *testing.T) *compiledJob {
	t.Helper()
	cp, _, err := commissionedQPU(1).Epoch().Prepare(freshAngleAnsatze(1, 5)[0], transpile.PlaceFidelityAware)
	if err != nil {
		t.Fatal(err)
	}
	return cp.cj
}

// ansatzRNGSeed is a job seed at which every fork of the transpiled ansatz
// at 100 shots carries one shot (ten forks), like pinnedRNGSeed's of the
// pinned wide job.
const ansatzRNGSeed = 1

// withHelper runs f with the helper rule set to rule.
func withHelper(rule helperRule, f func()) {
	defer func() { helperMode = helperBySize }()
	helperMode = rule
	f()
}

// TestForkStreamsAreScheduleFree is the gate of the fork streams: a
// subtree draws from its own stream, so what it decides does not depend on
// when, or on which goroutine, it runs. The pinned wide job and a
// transpiled 5-qubit ansatz read the same counts over the same leaves with
// the helper forced on (run many times, so the two goroutines interleave
// differently), with it off, at GOMAXPROCS=1 (no helper slot) and at
// budget 1, where every fork replays its shots one at a time. At these
// seeds every fork carries one shot, so the replay takes the same
// decisions as the fork.
func TestForkStreamsAreScheduleFree(t *testing.T) {
	for _, job := range []struct {
		name  string
		cj    *compiledJob
		shots int
		seed  int64
	}{
		{"wide", pinnedWideJob(t), 50, pinnedRNGSeed},
		{"ansatz", transpiledAnsatz(t), 100, ansatzRNGSeed},
	} {
		run := func(budget int) (map[int]int, runStats) {
			job.cj.stateBudget = budget
			counts, stats, err := job.cj.runBranchTree(job.shots, rand.New(rand.NewSource(job.seed)))
			if err != nil {
				t.Fatal(err)
			}
			return counts, stats
		}
		want, ws := run(defaultBranchStateBudget)
		if ws.forks == 0 {
			t.Fatalf("%s: no fork at seed %d: nothing to schedule", job.name, job.seed)
		}
		check := func(how string, got map[int]int, gs runStats) {
			t.Helper()
			if !reflect.DeepEqual(got, want) || gs.leaves != ws.leaves {
				t.Errorf("%s %s: %v over %d leaves, want %v over %d", job.name, how, got, gs.leaves, want, ws.leaves)
			}
		}
		helped := 0
		withHelper(helperAlways, func() {
			for i := 0; i < 20; i++ {
				got, gs := run(defaultBranchStateBudget)
				check("helper on", got, gs)
				helped += gs.helped
			}
		})
		withHelper(helperNever, func() {
			got, gs := run(defaultBranchStateBudget)
			check("helper off", got, gs)
			if gs.helped != 0 {
				t.Errorf("%s: %d forks helped with the helper off", job.name, gs.helped)
			}
		})
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			got, gs := run(defaultBranchStateBudget)
			check("at GOMAXPROCS=1", got, gs)
			if gs.helped != 0 {
				t.Errorf("%s: %d forks helped at GOMAXPROCS=1, where no helper slot exists", job.name, gs.helped)
			}
		}()
		got, gs := run(1)
		check("at budget 1", got, gs)
		if gs.forks != 0 {
			t.Errorf("%s: %d forks at budget 1, want every branch replayed", job.name, gs.forks)
		}
		job.cj.stateBudget = defaultBranchStateBudget
		t.Logf("%s: %d forks, %d leaves; the forced helper ran %d of 20×%d forks", job.name, ws.forks, ws.leaves, helped, ws.forks)
	}
}

// oneStreamAnsatz is the transpiled ansatz's outcomes on its five qubits
// (compact order), pooled over rng seeds 1..200 at 100 shots each,
// recorded when the whole tree drew from the job's one stream and read
// every leaf out in shot order; those runs took 2 093 leaves.
var oneStreamAnsatz = [32]int{
	206, 2732, 362, 4135, 1041, 1373, 1566, 2045, 36, 485, 61, 821, 233, 368, 371, 606,
	53, 710, 63, 711, 326, 435, 317, 415, 9, 62, 10, 97, 47, 84, 70, 150,
}

// TestForkStreamsMatchOneStream is the fork streams' chi-square row:
// pooled over the same seeds, the transpiled ansatz's outcomes, with each
// fork on its own stream and the forks' samples read out after the walk,
// are distributed as they were with one stream for the whole job.
func TestForkStreamsMatchOneStream(t *testing.T) {
	cj := transpiledAnsatz(t)
	forks, one := map[int]int{}, map[int]int{}
	for k, n := range oneStreamAnsatz {
		one[k] = n
	}
	leaves := 0
	for seed := int64(1); seed <= 200; seed++ {
		counts, stats, err := cj.runBranchTree(100, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for o, n := range counts {
			k := 0
			for i, q := range cj.toPhysical {
				k |= (o >> uint(q) & 1) << uint(i)
			}
			forks[k] += n
		}
		leaves += stats.leaves
	}
	assertChiSquareEquivalent(t, "transpiled ansatz, fork streams vs one stream", forks, one)
	t.Logf("fork streams over %d leaves; one stream over 2093 leaves", leaves)
}
