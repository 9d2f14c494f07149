package device

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

// TestNoiselessDistributionMatchesNaive is the noiseless distribution-
// equivalence check: the twin's one trajectory samples its leaf while the
// naive loop binary-searches a cumulative table, so the fixed-seed
// histograms are compared statistically (chi-square) rather than
// draw-for-draw.
func TestNoiselessDistributionMatchesNaive(t *testing.T) {
	const shots = 4000
	c := NativeGHZLine(4)
	fast, err := NewTwin20Q(77).Execute(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewTwin20Q(77).ExecuteNaive(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Shots != naive.Shots || fast.DurationUs != naive.DurationUs {
		t.Errorf("metadata mismatch: fast %d shots/%.1f us, naive %d shots/%.1f us",
			fast.Shots, fast.DurationUs, naive.Shots, naive.DurationUs)
	}
	assertChiSquareEquivalent(t, "fast vs naive", fast.Counts, naive.Counts)
}

// TestNoisyCompiledMatchesNaiveStatistically checks the trajectory path:
// the compiled program (fused RZ runs, precomputed channels, pooled states,
// shot-parallel workers) realizes the same noise model as the naive loop,
// so aggregate fidelity proxies agree within shot noise.
func TestNoisyCompiledMatchesNaiveStatistically(t *testing.T) {
	const shots = 3000
	c := NativeGHZLine(5)
	compiled, err := New20Q(21).Execute(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := New20Q(21).ExecuteNaive(c, shots)
	if err != nil {
		t.Fatal(err)
	}
	fc := GHZPopulationFidelity(compiled, 5)
	fn := GHZPopulationFidelity(naive, 5)
	if math.Abs(fc-fn) > 0.05 {
		t.Errorf("GHZ population fidelity: compiled %.4f vs naive %.4f, want within 0.05", fc, fn)
	}
	total := 0
	for _, n := range compiled.Counts {
		total += n
	}
	if total != shots {
		t.Errorf("compiled histogram total = %d, want %d", total, shots)
	}
}

// perfectCalibrationQPU is a non-twin device under a hypothetically perfect
// calibration: no gate, decoherence, or readout error.
func perfectCalibrationQPU(seed int64) *QPU {
	return withCalibration(New20Q(seed), func(c *Calibration) {
		for q := range c.Qubits {
			c.Qubits[q].F1Q = 1
			c.Qubits[q].FReadout = 1
			c.Qubits[q].T1 = math.Inf(1)
			c.Qubits[q].T2 = math.Inf(1)
		}
		for e := range c.Couplers {
			c.Couplers[e] = CouplerCalibration{FCZ: 1}
		}
	})
}

// TestNoiselessJobIsOneTrajectory: a program with no noise site — the
// twin's, or a non-twin device's under a zero-error calibration — rides the
// branch tree like every job, as one trajectory whose one leaf samples every
// shot.
func TestNoiselessJobIsOneTrajectory(t *testing.T) {
	const jobs, shots = 3, 2000
	for _, tc := range []struct {
		name string
		qpu  *QPU
	}{
		{"twin", NewTwin20Q(30)},
		{"zero-error calibration", perfectCalibrationQPU(30)},
	} {
		c := NativeGHZLine(5)
		for i := 0; i < jobs; i++ {
			res, err := tc.qpu.Execute(c, shots)
			if err != nil {
				t.Fatal(err)
			}
			if f := GHZPopulationFidelity(res, 5); f != 1 {
				t.Errorf("%s: GHZ fidelity = %g, want exactly 1", tc.name, f)
			}
		}
		if st := tc.qpu.ExecStats(); st.BranchTreeJobs != jobs || st.BranchTreeShots != jobs*shots || st.BranchLeaves != jobs {
			t.Errorf("%s: stats = %+v, want %d jobs of %d shots on the branch tree, one leaf each", tc.name, st, jobs, shots)
		}
		cj, _, err := tc.qpu.compiledFor(c)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := cj.runBranchTree(shots, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if stats != (runStats{leaves: 1}) {
			t.Errorf("%s: run stats = %+v, want one leaf and no noise site", tc.name, stats)
		}
	}
}

// TestCompileJobKeepsOnlyTheProgramItRuns: every compiled job holds the
// trajectory program the branch tree walks, with noise sites exactly when
// its epoch is noisy, allocated at its final length.
func TestCompileJobKeepsOnlyTheProgramItRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		qpu   *QPU
		noisy bool
	}{
		{"twin", NewTwin20Q(33), false},
		{"zero-error calibration", perfectCalibrationQPU(33), false},
		{"noisy", New20Q(33), true},
	} {
		cj, _, err := tc.qpu.compiledFor(NativeGHZLine(5))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sites := 0
		for i := range cj.noisy {
			if cj.noisy[i].hasNoise() {
				sites++
			}
		}
		if len(cj.noisy) == 0 || (sites > 0) != tc.noisy {
			t.Errorf("%s: %d steps, %d noise sites; want the trajectory program, with sites iff the epoch is noisy", tc.name, len(cj.noisy), sites)
		}
		if len(cj.noisy) != cap(cj.noisy) {
			t.Errorf("%s: trajectory program holds %d steps in room for %d, want it allocated at its final length", tc.name, len(cj.noisy), cap(cj.noisy))
		}
	}
}

// TestProgramCacheEvictionIsAmortised: a hybrid loop misses the epoch's
// compile map on every job, so the map is full for good after
// maxCompiledJobs of them. Evicting must not walk the whole map per miss:
// over N misses past the bound, the entries walked (a full walk for each
// miss that evicted) stay O(N). An in-flight entry is never the one to go.
func TestProgramCacheEvictionIsAmortised(t *testing.T) {
	const past = 2 * maxCompiledJobs
	circs := freshAngleAnsatze(maxCompiledJobs+past, 4)
	qpu := New20Q(34)
	ep := qpu.Epoch()
	inFlight := string(compileKey(nil, circuit.GHZ(1), placeNone))
	ep.progs[inFlight] = new(Compiled) // not filled: in flight
	size := func() int {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.progs)
	}
	walks := 0
	for i, c := range circs {
		before := size()
		if _, hit, err := qpu.compiledFor(c); err != nil || hit {
			t.Fatalf("job %d: hit=%v err=%v, want a miss", i, hit, err)
		}
		after := size()
		if after > maxCompiledJobs {
			t.Fatalf("cache holds %d programs after job %d, bound is %d", after, i, maxCompiledJobs)
		}
		if after <= before {
			walks++
		}
	}
	if walked := walks * maxCompiledJobs; walked > 4*past {
		t.Errorf("%d misses evicted, walking ~%d entries over %d misses past the bound: want at most %d (amortised O(1) per miss)",
			walks, walked, past, 4*past)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.progs[inFlight] == nil {
		t.Error("an in-flight entry was evicted: single-flight broken")
	}
}

func TestNoisyStrategyPick(t *testing.T) {
	qpu := New20Q(31)
	// A dominant-trajectory noisy job with shots to amortize rides the
	// branch tree, and so does a tiny one: there is one noisy path.
	if _, err := qpu.Execute(NativeGHZLine(4), 100); err != nil {
		t.Fatal(err)
	}
	st := qpu.ExecStats()
	if st.BranchTreeJobs != 1 {
		t.Errorf("stats = %+v, want the 100-shot job on the branch tree", st)
	}
	if st.BranchLeaves == 0 || st.BranchLeaves >= st.BranchTreeShots {
		t.Errorf("branch leaves = %d over %d shots, want 0 < leaves < shots", st.BranchLeaves, st.BranchTreeShots)
	}
	if _, err := qpu.Execute(NativeGHZLine(4), 7); err != nil {
		t.Fatal(err)
	}
	if st = qpu.ExecStats(); st.BranchTreeJobs != 2 || st.BranchTreeShots != 107 {
		t.Errorf("stats = %+v, want the 7-shot job on the branch tree too", st)
	}
}

func TestCompiledProgramCache(t *testing.T) {
	qpu := NewTwin20Q(32)
	c := NativeGHZLine(4)
	for i := 0; i < 3; i++ {
		if _, err := qpu.Execute(c, 10); err != nil {
			t.Fatal(err)
		}
	}
	st := qpu.ExecStats()
	if st.CompileMisses != 1 || st.CompileHits != 2 {
		t.Errorf("cache stats = %d misses / %d hits, want 1 / 2", st.CompileMisses, st.CompileHits)
	}
	// A calibration-epoch bump must invalidate the cached program.
	qpu.AdvanceDrift(1)
	if _, err := qpu.Execute(c, 10); err != nil {
		t.Fatal(err)
	}
	st = qpu.ExecStats()
	if st.CompileMisses != 2 {
		t.Errorf("post-drift misses = %d, want 2 (epoch invalidation)", st.CompileMisses)
	}
	// A structurally different circuit is its own entry.
	if _, err := qpu.Execute(NativeGHZLine(5), 10); err != nil {
		t.Fatal(err)
	}
	if st = qpu.ExecStats(); st.CompileMisses != 3 {
		t.Errorf("distinct-circuit misses = %d, want 3", st.CompileMisses)
	}
}

func TestExecuteGatelessCircuit(t *testing.T) {
	// Touching no qubits leaves the register in |0...0>; the twin counts all
	// shots there, the noisy device only corrupts through readout.
	c := circuit.New(3, "idle")
	c.Barrier(0, 1, 2)
	res, err := NewTwin20Q(33).Execute(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 500 {
		t.Errorf("twin gateless counts = %v, want all 500 at 0", res.Counts)
	}
	noisy, err := New20Q(34).Execute(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range noisy.Counts {
		total += n
	}
	if total != 500 {
		t.Errorf("noisy gateless histogram total = %d, want 500", total)
	}
	if float64(noisy.Counts[0])/500 < 0.8 {
		t.Errorf("noisy gateless P(0) = %.3f, readout error implausibly large", float64(noisy.Counts[0])/500)
	}
}

func TestTrajectoryShotSplitConservesShots(t *testing.T) {
	// An odd shot count exercises the uneven worker split.
	res, err := New20Q(35).Execute(NativeGHZLine(3), 997)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 997 {
		t.Errorf("histogram total = %d, want 997", total)
	}
}

func TestNaiveAndCompiledRejectSameInputs(t *testing.T) {
	qpu := New20Q(36)
	bad := circuit.New(20, "bad-cz")
	bad.CZ(0, 19)
	if _, err := qpu.Execute(bad, 10); err == nil {
		t.Error("Execute accepted disconnected CZ")
	}
	if _, err := qpu.ExecuteNaive(bad, 10); err == nil {
		t.Error("ExecuteNaive accepted disconnected CZ")
	}
	if _, err := qpu.Execute(circuit.GHZ(3), 10); err == nil {
		t.Error("Execute accepted non-native circuit")
	}
}
