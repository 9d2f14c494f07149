package device

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/circuit"
)

// assertChiSquareEquivalent runs a two-sample chi-square test on two
// histograms with equal totals and fails if they differ at p ≈ 0.001
// (Wilson–Hilferty critical value). Fixed seeds make the check
// deterministic; the loose significance keeps it honest, not flaky.
func assertChiSquareEquivalent(t *testing.T, label string, a, b map[int]int) {
	t.Helper()
	outcomes := map[int]bool{}
	for o := range a {
		outcomes[o] = true
	}
	for o := range b {
		outcomes[o] = true
	}
	chi2, df := 0.0, -1
	for o := range outcomes {
		na, nb := float64(a[o]), float64(b[o])
		if na+nb == 0 {
			continue
		}
		d := na - nb
		chi2 += d * d / (na + nb)
		df++
	}
	if df < 1 {
		return // at most one populated outcome: nothing to compare
	}
	fd := float64(df)
	const z = 3.09 // Φ⁻¹(0.999)
	crit := fd * math.Pow(1-2/(9*fd)+z*math.Sqrt(2/(9*fd)), 3)
	if chi2 > crit {
		t.Errorf("%s: chi-square %.1f > critical %.1f (df %d) — distributions differ", label, chi2, crit, df)
	}
}

// bareFlushCircuit holds a single-qubit run that is flushed bare — a gate
// with no noise site — before a CZ: RZ(π) between two PRX(π/2, π/2) turns
// their product from a bit flip into the identity, so dropping the flushed
// gate would move nearly all the mass from |00> to |01>.
func bareFlushCircuit() *circuit.Circuit {
	c := circuit.New(2, "bare-flush")
	c.PRX(0, math.Pi/2, math.Pi/2)
	c.RZ(0, math.Pi)
	c.CZ(0, 1)
	c.PRX(0, math.Pi/2, math.Pi/2)
	c.PRX(1, math.Pi/3, 0)
	return c
}

// TestBranchTreeChiSquareEquivalence is the acceptance-criteria check: at
// fixed seeds, the shot-branching tree and ExecuteNaive draw from the same
// outcome distribution — on fused PRX sites, on the noise-only sites after a
// CZ, on a bare flushed gate, and with the state budget squeezed so every
// fork replays shot by shot.
func TestBranchTreeChiSquareEquivalence(t *testing.T) {
	const shots = 4000
	for _, c := range []*circuit.Circuit{NativeGHZLine(5), bareFlushCircuit(), NativeRandom45(6, 3, 11)} {
		naive, err := New20Q(55).ExecuteNaive(c, shots)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{defaultBranchStateBudget, 1} {
			treeQPU := New20Q(55)
			squeezeStateBudget(t, treeQPU, c, budget)
			tree, err := treeQPU.Execute(c, shots)
			if err != nil {
				t.Fatal(err)
			}
			if st := treeQPU.ExecStats(); st.BranchTreeJobs != 1 {
				t.Fatalf("%s: stats = %+v, want the job on the branch tree", c.Name, st)
			}
			assertChiSquareEquivalent(t, fmt.Sprintf("%s (budget %d): branch tree vs naive", c.Name, budget), tree.Counts, naive.Counts)
		}
	}
}

// inflatedErrorQPU is a device whose calibration makes every noise site a
// coin toss: 15 % single-qubit and 30 % CZ gate error, so a shot leaves the
// dominant trajectory several times per circuit and no two share a prefix.
func inflatedErrorQPU(seed int64) *QPU {
	return withCalibration(New20Q(seed), func(c *Calibration) {
		for q := range c.Qubits {
			c.Qubits[q].F1Q = 0.85
		}
		for e := range c.Couplers {
			c.Couplers[e] = CouplerCalibration{FCZ: 0.7}
		}
	})
}

// TestDegenerateTreesChiSquareEquivalence covers the two job shapes with no
// prefix sharing to exploit — a handful of shots, and noise heavy enough
// that every shot parts ways — which ride the same tree as everything else:
// its split degenerates to one trajectory per shot, and the pooled
// histogram must still be ExecuteNaive's.
func TestDegenerateTreesChiSquareEquivalence(t *testing.T) {
	c := NativeGHZLine(5)

	const jobs, few = 1000, 4
	qpu := New20Q(58)
	pooled := map[int]int{}
	for j := 0; j < jobs; j++ {
		res, err := qpu.Execute(c, few)
		if err != nil {
			t.Fatal(err)
		}
		for o, n := range res.Counts {
			pooled[o] += n
		}
	}
	if st := qpu.ExecStats(); st.BranchTreeJobs != jobs || st.BranchTreeShots != jobs*few {
		t.Fatalf("stats = %+v, want all %d %d-shot jobs on the branch tree", st, jobs, few)
	}
	naive, err := New20Q(58).ExecuteNaive(c, jobs*few)
	if err != nil {
		t.Fatal(err)
	}
	assertChiSquareEquivalent(t, "4-shot jobs vs naive", pooled, naive.Counts)

	const shots = 4000
	heavy := inflatedErrorQPU(59)
	res, err := heavy.Execute(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	st := heavy.ExecStats()
	if st.BranchTreeJobs != 1 {
		t.Fatalf("stats = %+v, want the inflated-error job on the branch tree", st)
	}
	if 2*st.BranchLeaves <= shots {
		t.Fatalf("%d leaves over %d shots: the calibration is too clean to stop the shots sharing trajectories", st.BranchLeaves, shots)
	}
	naive, err = inflatedErrorQPU(59).ExecuteNaive(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	assertChiSquareEquivalent(t, "inflated-error calibration vs naive", res.Counts, naive.Counts)
}

// squeezeStateBudget compiles c on qpu and sets the job's branch-tree state
// budget, so the Execute calls that follow (program-cache hits) run with it.
func squeezeStateBudget(t *testing.T, qpu *QPU, c *circuit.Circuit, budget int) {
	t.Helper()
	cj, _, err := qpu.compiledFor(c)
	if err != nil {
		t.Fatal(err)
	}
	cj.stateBudget = budget
}

// TestBranchTreeSingleShotSubtrees drives the tree where it degenerates:
// few shots per job on a badly drifted calibration, so most leaves carry a
// single shot and the n == 1 subtrees (per-shot fused sites inside the tree)
// do the work. The pooled histogram must still match ExecuteNaive.
func TestBranchTreeSingleShotSubtrees(t *testing.T) {
	const jobs, shots = 400, 8
	c := NativeGHZLine(5)
	drifted := func() *QPU {
		qpu := New20Q(57)
		qpu.AdvanceDrift(24 * 60)
		return qpu
	}
	cj, _, err := drifted().compiledFor(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pooled, leaves := map[int]int{}, 0
	for j := 0; j < jobs; j++ {
		counts, l, err := cj.runBranchTree(shots, rng)
		if err != nil {
			t.Fatal(err)
		}
		leaves += l.leaves
		for o, n := range counts {
			pooled[o] += n
		}
	}
	// More leaves than half the shots: by pigeonhole some leaf — in fact
	// most — held exactly one shot.
	if 2*leaves <= jobs*shots {
		t.Fatalf("%d leaves over %d shots: the calibration is too clean to reach single-shot subtrees", leaves, jobs*shots)
	}
	naive, err := drifted().ExecuteNaive(c, jobs*shots)
	if err != nil {
		t.Fatal(err)
	}
	assertChiSquareEquivalent(t, "single-shot subtrees vs naive", pooled, naive.Counts)
}

// TestBranchTreeConservesShots is the multinomial-split conservation
// property: over randomized circuits, seeds, and shot counts, every shot
// lands in exactly one leaf and the histogram total never drifts.
func TestBranchTreeConservesShots(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		circ := NativeRandom45(6, 3, seed)
		qpu := New20Q(60 + seed)
		for _, shots := range []int{8, 33, 200, 997} {
			res, err := qpu.Execute(circ, shots)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, n := range res.Counts {
				total += n
			}
			if total != shots {
				t.Errorf("seed %d: histogram total = %d, want %d", seed, total, shots)
			}
		}
		if st := qpu.ExecStats(); st.BranchTreeJobs == 0 {
			t.Errorf("seed %d: no job took the branch tree (stats %+v)", seed, st)
		}
	}
}

// TestBranchTreeBudgetFallback squeezes the state budget to one so every
// fork goes through the per-shot replay path, then checks the fallback is
// still exact: shots conserved and the distribution unchanged.
func TestBranchTreeBudgetFallback(t *testing.T) {
	const shots = 3000
	c := NativeGHZLine(5)
	qpu := New20Q(21)
	squeezeStateBudget(t, qpu, c, 1)
	res, err := qpu.Execute(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != shots {
		t.Fatalf("histogram total = %d, want %d", total, shots)
	}
	naive, err := New20Q(21).ExecuteNaive(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	assertChiSquareEquivalent(t, "budget-1 tree vs naive", res.Counts, naive.Counts)
}

// TestNoisyExecutionDeterministic pins the reproducibility satellite: a
// fixed seed yields byte-identical histograms run over run, on any host.
func TestNoisyExecutionDeterministic(t *testing.T) {
	c := NativeGHZLine(5)
	run := func() map[int]int {
		res, err := New20Q(70).Execute(c, 200)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed branch-tree runs differ: %v vs %v", a, b)
	}

	// Host independence: a 14-qubit register takes a helper goroutine when
	// one is free, and the branch weights come from a reduction over the
	// state; neither may let GOMAXPROCS into the counts.
	wide := NativeRandom45(14, 2, 5)
	runWide := func(procs int) map[int]int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := New20Q(72).Execute(wide, 16)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts
	}
	if a, b := runWide(1), runWide(2); !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed counts differ between GOMAXPROCS 1 and 2: %v vs %v", a, b)
	}
}

// TestNoisyHotPathAllocs gates the allocation envelope of the noisy path
// with testing.AllocsPerRun so it cannot silently rot: a branch-tree job,
// pooled forks and all, stays within a small constant.
func TestNoisyHotPathAllocs(t *testing.T) {
	if raceEnabled {
		// Under -race sync.Pool drops a share of the released fork states at
		// random, and every drop is a fresh state later: the tree's count
		// is only a property of the engine without it.
		t.Skip("sync.Pool drops released fork states at random under -race")
	}
	cj, _, err := New20Q(80).compiledFor(NativeGHZLine(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, _, err := cj.runBranchTree(200, rng); err != nil { // warm the state pool and forks
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := cj.runBranchTree(200, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("branch tree: %.0f allocs per 200-shot job, want <= 16 (measured 4; 6 before the job's scratch was pooled)", allocs)
	}
}

// freshAngleAnsatze returns n 5-qubit depth-4 PRX/CZ ansatz circuits with
// independent random angles — the hybrid-loop job shape, every one a
// program-cache miss.
func freshAngleAnsatze(n int, seed int64) []*circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	circs := make([]*circuit.Circuit, n)
	for i := range circs {
		c := circuit.New(5, "ansatz")
		for l := 0; l < 4; l++ {
			for q := 0; q < 5; q++ {
				c.PRX(q, 2*math.Pi*rng.Float64(), 0)
			}
			for q := l % 2; q+1 < 5; q += 2 {
				c.CZ(q, q+1)
			}
		}
		circs[i] = c
	}
	return circs
}

// TestConcurrentCompilesShareNoiseMemo: pipeline workers compile different
// circuits on one device at once, and every noise site of every program they
// build holds the epoch's precomputed channel for its qubit or coupler, not
// a recomposition of its own — run under -race in CI.
func TestConcurrentCompilesShareNoiseMemo(t *testing.T) {
	const workers, each = 4, 8
	circs := freshAngleAnsatze(workers*each, 3)
	qpu := New20Q(82)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(mine []*circuit.Circuit) {
			for _, c := range mine {
				if _, err := qpu.ExecuteCtx(context.Background(), c, 20); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(circs[w*each : (w+1)*each])
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	ep := qpu.Epoch()
	if len(ep.progs) != len(circs) {
		t.Fatalf("epoch holds %d programs after %d distinct circuits", len(ep.progs), len(circs))
	}
	for _, e := range ep.progs {
		if bad := ep.NoiseMismatch(e); bad != "" {
			t.Errorf("%s does not hold the epoch's channel", bad)
		}
	}
}

// TestFreshAngleCompileAllocs gates the compile-miss path of a hybrid loop:
// every job is a 5-qubit ansatz with fresh angles, so the epoch's compile
// map misses each call while its noise channels are read, not built. What is
// left is per circuit, not per gate: the map entry (holding its program and
// its own completion) and its key, the compact register's map, the
// trajectory program at its final length, the readout plan, the job's
// random stream, the counts and the result.
func TestFreshAngleCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under -race")
	}
	const runs = 20
	circs := freshAngleAnsatze(runs+2, 2)
	qpu := New20Q(81)
	ctx := context.Background()
	next := 0
	exec := func() {
		if _, err := qpu.ExecuteCtx(ctx, circs[next], 100); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Warm the state pool on the one P AllocsPerRun measures on: a pool's
	// objects are per P, and a GOMAXPROCS change drops them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	exec()
	allocs := testing.AllocsPerRun(runs, exec)
	if st := qpu.ExecStats(); st.CompileHits != 0 {
		t.Fatalf("stats = %+v, want every job a compile miss", st)
	}
	t.Logf("fresh-angle ansatz job: %.0f allocs", allocs)
	if allocs > 14 {
		t.Errorf("fresh-angle ansatz job: %.0f allocs, want <= 14 (measured 12 with the pools warmed on the one P it measures on, 12-13 warmed at the default GOMAXPROCS: the entry and its key copy, 4 for the counts map, 1 each for the compact register, the trajectory program, the readout plan, the job's PCG stream and the result, and the forked subtrees' draws; 14-15 with a separate completion channel and engine program per entry, and 12 before the entry copied its key; 19 with a compact circuit and per-compile qubit tables, 21 before the branch tree's scratch was pooled; 29 with a calibration clone and a readout model per miss, 93 with per-gate operand slices, a dead unitary program and a fresh rand source per job)", allocs)
	}
}

// TestReadoutFlipsBeyondCompactRegister covers the countsHint edge case:
// readout noise on physical qubits outside the compact register pushes
// outcomes past the register dimension, and the histogram (sized by the
// hint) must still count them all.
func TestReadoutFlipsBeyondCompactRegister(t *testing.T) {
	qpu := withCalibration(New20Q(90), func(c *Calibration) {
		for q := range c.Qubits {
			c.Qubits[q].FReadout = 0.6 // brutal readout so flips are certain
		}
	})
	c := circuit.New(12, "narrow")
	c.PRX(0, math.Pi/2, math.Pi/2)
	c.CZ(0, 1)
	const shots = 500
	res, err := qpu.Execute(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	cj, _, err := qpu.compiledFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cj.compactQubits != 2 {
		t.Fatalf("compact register = %d qubits, want 2", cj.compactQubits)
	}
	if hint := cj.countsHint(shots); hint != 4 {
		t.Errorf("countsHint(%d) = %d, want the register dimension 4", shots, hint)
	}
	total, beyond := 0, 0
	for outcome, n := range res.Counts {
		total += n
		if outcome >= 1<<2 {
			beyond += n
		}
	}
	if total != shots {
		t.Errorf("histogram total = %d, want %d", total, shots)
	}
	if beyond == 0 {
		t.Error("no outcome beyond the compact register dimension despite 40% readout error on 12 qubits")
	}
}
