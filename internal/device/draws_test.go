package device

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/quantum"
	"repro/internal/transpile"
)

// countingSource is a math/rand source that counts the values drawn from
// it: one per Float64, one per alias or cumulative sample.
type countingSource struct {
	src   rand.Source64
	draws int
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

func countingRNG(seed int64) (*rand.Rand, *countingSource) {
	c := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(c), c
}

// countForkStreams counts the draws of every forked subtree's stream
// until the test ends: it wraps each stream as it is seeded, and returns
// the wrappers. The job must run on one goroutine (no helper).
func countForkStreams(t *testing.T) *[]*countingSource {
	var forks []*countingSource
	streamHook = func(r *rand.Rand) *rand.Rand {
		c := &countingSource{src: r}
		forks = append(forks, c)
		return rand.New(c)
	}
	t.Cleanup(func() { streamHook = nil })
	return &forks
}

// commissionedQPU is the primary a daemon started with -seed seed serves:
// 81 hourly drift steps (the cooldown) and then a full recalibration.
func commissionedQPU(seed int64) *QPU {
	qpu := New20Q(seed)
	for h := 0; h < 81; h++ {
		qpu.AdvanceDrift(1)
	}
	qpu.Recalibrate(true)
	return qpu
}

// TestDrawsScaleWithEvents holds the engine to drawing per noise event, not
// per shot: a site visit no shot leaves costs one uniform whatever its shot
// count, a transpiled GHZ(6) x 100 job a few hundred draws (one per shot
// per site and per qubit at readout made it 4 200) — counted on the job's
// stream and on every fork's, whose first readout gaps are draws of their
// own — and a qubit the job never touches draws once for its first readout
// flip and once per flip after that.
func TestDrawsScaleWithEvents(t *testing.T) {
	t.Run("site-under-floor", func(t *testing.T) {
		step := trajStep{kind: stepNoise}
		step.noiseSite(quantum.Depolarizing(1e-12))
		cj := &compiledJob{compactQubits: 1, noisy: []trajStep{step}, stateBudget: defaultBranchStateBudget}
		for _, n := range []int{1, 100, 10000} {
			rng, src := countingRNG(int64(n))
			w, root := rootWalker(cj, rng)
			got, err := w.site(quantum.MustNewState(1), root, 0, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != n || w.deferredSites != 1 {
				t.Fatalf("n=%d: %d shots continue, %d deferred sites; want all %d on a deferred site", n, got, w.deferredSites, n)
			}
			if src.draws != 1 {
				t.Errorf("n=%d: the site drew %d uniforms, want 1", n, src.draws)
			}
		}
	})

	t.Run("ghz6", func(t *testing.T) {
		cp, _, err := commissionedQPU(1).Epoch().Prepare(circuit.GHZ(6), transpile.PlaceFidelityAware)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			rng, root := countingRNG(seed)
			forks := countForkStreams(t)
			_, stats, err := cp.cj.runBranchTree(100, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(*forks) != stats.forks {
				t.Fatalf("stream seed %d: %d fork streams seen, %d forks run", seed, len(*forks), stats.forks)
			}
			draws := root.draws
			for _, f := range *forks {
				draws += f.draws
			}
			t.Logf("stream seed %d: %d draws, %d of them on %d fork streams", seed, draws, draws-root.draws, stats.forks)
			if draws > 400 {
				t.Errorf("stream seed %d: GHZ(6) x 100 drew %d values, want <= 400", seed, draws)
			}
		}
	})

	t.Run("untouched-readout", func(t *testing.T) {
		qpu := commissionedQPU(1)
		cj, _, err := qpu.compiledFor(circuit.New(qpu.NumQubits(), "idle"))
		if err != nil {
			t.Fatal(err)
		}
		canFlip := 0
		for _, p := range qpu.Epoch().readout.P10 {
			if p > 0 {
				canFlip++
			}
		}
		const shots = 10000
		rng, src := countingRNG(3)
		counts, _, err := cj.runBranchTree(shots, rng)
		if err != nil {
			t.Fatal(err)
		}
		flips := 0
		for outcome, n := range counts {
			flips += bits.OnesCount(uint(outcome)) * n
		}
		if want := canFlip + flips; src.draws != want {
			t.Errorf("%d shots of an untouched %d-qubit register: %d draws, want %d (one per qubit that can flip, one per flip)",
				shots, qpu.NumQubits(), src.draws, want)
		}
	})
}

// TestSparseReadoutMatchesCorrupt checks the per-flip readout pass against
// the per-shot ReadoutModel.Corrupt it replaced, on a register where four
// of six qubits are untouched: the same sample stream, read out both ways,
// gives the same histogram with perfect readout and the same distribution
// (chi-square) with typical and with coin-flip confusion.
func TestSparseReadoutMatchesCorrupt(t *testing.T) {
	const n, shots = 6, 40000
	toPhysical := []int{1, 4}
	for _, tc := range []struct {
		name     string
		p10, p01 func(q int) float64
	}{
		{"perfect", func(int) float64 { return 0 }, func(int) float64 { return 0 }},
		// Qubit 0 reads 0 perfectly and qubit 1 reads 1 perfectly: an idle
		// qubit that cannot flip, and a touched one with one exact value.
		{"typical",
			func(q int) float64 { return [n]float64{0, 0.01, 0.02, 0.015, 0.03, 0.025}[q] },
			func(q int) float64 { return [n]float64{0.04, 0, 0.05, 0.03, 0.06, 0.045}[q] }},
		{"coin", func(int) float64 { return 0.5 }, func(int) float64 { return 0.5 }},
	} {
		model := &quantum.ReadoutModel{P10: make([]float64, n), P01: make([]float64, n)}
		for q := 0; q < n; q++ {
			model.P10[q], model.P01[q] = tc.p10(q), tc.p01(q)
		}
		cj := &compiledJob{compactQubits: len(toPhysical), toPhysical: toPhysical, readout: newReadoutPlan(model, n, toPhysical)}
		if (cj.readout == nil) != (tc.name == "perfect") {
			t.Fatalf("%s: readout plan %v", tc.name, cj.readout)
		}
		samples := rand.New(rand.NewSource(7))
		var ro readout
		ro.init(cj, rand.New(rand.NewSource(1)))
		perShot := rand.New(rand.NewSource(2))
		sparse, corrupt := map[int]int{}, map[int]int{}
		for s := 0; s < shots; s++ {
			sample := samples.Intn(1 << len(toPhysical))
			ro.tally(sparse, sample)
			outcome := 0
			for i, q := range toPhysical {
				outcome |= (sample >> uint(i) & 1) << uint(q)
			}
			corrupt[model.Corrupt(outcome, perShot)]++
		}
		if tc.name == "perfect" {
			if !reflect.DeepEqual(sparse, corrupt) {
				t.Errorf("perfect readout: sparse %v, per-shot %v", sparse, corrupt)
			}
			continue
		}
		assertChiSquareEquivalent(t, tc.name+" readout: sparse vs per-shot Corrupt", sparse, corrupt)
	}
}
