package device

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/quantum"
)

// The pinned fixture below was recorded when each forked subtree got a
// stream of its own, seeded by one draw of its parent's, and the samples of
// the forked subtrees' leaves came to be read out after the walk, in the
// order of their outcomes (branchtree.go, frame and readForked), with this
// file's circuit, device seed and rng seed. The rule it pins: counts are a
// function of the request, the epoch and the job seed, wherever a subtree
// runs; draws are per event. Deferral changes what a site costs, never what
// it decides. At this seed each of the tree's seven forks carries one shot,
// so the budget-1 run, which replays every fork shot by shot from its
// checkpoint, each shot on a stream seeded by one draw as a fork's is,
// takes the same decisions and reaches the same histogram and leaf total
// through the replay path.
//
// The fixture before it (49 outcomes over 11 leaves) was recorded when
// draws became per event, with one stream for the whole tree; every fork
// moved the draws after it, so the change of streams moved the counts
// once. TestBranchTreeChiSquareEquivalence, TestLaneOrderMatchesIndexOrder
// and TestForkStreamsMatchOneStream compare the distributions.
//
// The sums the engine reads — each qubit density and the sampler's
// probability total — add in one fixed lane order: term k into lane k mod 4,
// the lanes combined as (s0+s1)+(s2+s3), on the vector unit and in Go alike.
// They added in index order when the fixture before this one was recorded,
// and it held through that change unedited: no draw of this job lands
// within those bits of a branch or bucket edge. TestLaneOrderMatchesIndexOrder
// compares the two orders over many seeds.

var pinnedWide = map[int]int{
	59: 1, 131: 1, 187: 1, 193: 1, 227: 1, 307: 1, 358: 1, 387: 1, 388: 1, 453: 1,
	519: 1, 717: 1, 721: 1, 728: 1, 879: 1, 975: 1, 1407: 1, 1433: 1, 1673: 1, 2108: 1,
	2215: 1, 2503: 1, 2593: 1, 2769: 1, 3171: 1, 3206: 1, 3233: 1, 3235: 1, 3253: 1, 3302: 1,
	3304: 1, 3369: 1, 3382: 1, 3459: 1, 3463: 1, 3521: 2, 3529: 1, 3537: 1, 3553: 1, 3555: 1,
	3675: 1, 3741: 1, 3789: 1, 3806: 1, 3817: 1, 3818: 1, 3836: 1, 3951: 1, 4035: 1,
}

// pinnedWideLeaves is the leaf total of the pinned run.
const pinnedWideLeaves = 8

const pinnedRNGSeed = 33

// pinnedWideJob compiles the 12-qubit depth-4 random circuit of the
// wide-circuit fixtures on a fresh seeded device.
func pinnedWideJob(t *testing.T) *compiledJob {
	t.Helper()
	cj, _, err := New20Q(101).compiledFor(NativeRandom45(12, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	return cj
}

// TestSeededCountsMatchParent is the "same decisions under the same seed"
// gate: the tree and the replay fallback reproduce the recorded histogram
// and leaf total.
func TestSeededCountsMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
		counts map[int]int
		leaves int
	}{
		{"tree", defaultBranchStateBudget, pinnedWide, pinnedWideLeaves},
		{"replay", 1, pinnedWide, pinnedWideLeaves},
	} {
		cj := pinnedWideJob(t)
		cj.stateBudget = tc.budget
		counts, stats, err := cj.runBranchTree(50, rand.New(rand.NewSource(pinnedRNGSeed)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, tc.counts) {
			t.Errorf("%s: counts = %v, want the recorded %v", tc.name, counts, tc.counts)
		}
		if stats.leaves != tc.leaves {
			t.Errorf("%s: %d leaves, want the recorded %d", tc.name, stats.leaves, tc.leaves)
		}
		if stats.deferredSites == 0 || stats.exactSites == 0 {
			t.Errorf("%s: %d deferred / %d exact sites, want both kinds on a fresh calibration", tc.name, stats.deferredSites, stats.exactSites)
		}
	}
}

// indexOrderWide is the pinned wide job's outcomes by Hamming weight, pooled
// over rng seeds 1..200 at 50 shots each (the tree), recorded when the
// engine's sums added in index order; those runs took 2 649 leaves.
var indexOrderWide = [13]int{1, 4, 61, 278, 820, 1595, 2050, 2088, 1649, 943, 426, 81, 4}

// TestLaneOrderMatchesIndexOrder is the lane order's chi-square row: pooled
// over the same seeds, the pinned wide job's outcomes by Hamming weight
// under the lane-order sums are distributed as the index-order ones were.
func TestLaneOrderMatchesIndexOrder(t *testing.T) {
	lane, index := map[int]int{}, map[int]int{}
	for w, n := range indexOrderWide {
		index[w] = n
	}
	leaves := 0
	for seed := int64(1); seed <= 200; seed++ {
		counts, stats, err := pinnedWideJob(t).runBranchTree(50, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for o, n := range counts {
			lane[bits.OnesCount(uint(o))] += n
		}
		leaves += stats.leaves
	}
	assertChiSquareEquivalent(t, "pinned wide job, lane-order vs index-order sums", lane, index)
	t.Logf("lane order: %v over %d leaves; index order: %v over 2649 leaves", lane, leaves, indexOrderWide)
}

// TestZeroFloorsGiveSameCounts forces every site exact — a floor of zero
// accepts no draw — and checks the deferred run of the same seed made the
// same decisions: accepting a draw under the floor is the exact site's own
// answer, not an approximation of it.
func TestZeroFloorsGiveSameCounts(t *testing.T) {
	for _, budget := range []int{defaultBranchStateBudget, 1} {
		deferred, exact := pinnedWideJob(t), pinnedWideJob(t)
		deferred.stateBudget, exact.stateBudget = budget, budget
		for i := range exact.noisy {
			exact.noisy[i].floor = 0
		}
		for seed := int64(1); seed <= 3; seed++ {
			got, gs, err := deferred.runBranchTree(50, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, ws, err := exact.runBranchTree(50, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if ws.deferredSites != 0 {
				t.Fatalf("zero floors still deferred %d sites", ws.deferredSites)
			}
			if !reflect.DeepEqual(got, want) || gs.leaves != ws.leaves {
				t.Errorf("budget %d seed %d: deferred run %v (%d leaves), all-exact run %v (%d leaves)",
					budget, seed, got, gs.leaves, want, ws.leaves)
			}
		}
	}
}

// TestFloorBoundsFirstBranchWeight is the property deferral rests on: on any
// normalised state, behind any gate, the first Kraus operator's weight is at
// least the channel's floor — for every channel an epoch composes on a
// fresh and on a badly drifted calibration, and for strong composed
// 16-branch channels.
func TestFloorBoundsFirstBranchWeight(t *testing.T) {
	var chans []quantum.Channel
	for _, drift := range []float64{0, 24 * 60} {
		qpu := New20Q(7)
		if drift > 0 {
			qpu.AdvanceDrift(drift)
		}
		ep := qpu.Epoch()
		chans = append(chans, ep.prx...)
		for _, pair := range ep.cz {
			chans = append(chans, pair[:]...)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		chans = append(chans, quantum.Compose(quantum.Compose(
			quantum.Depolarizing(rng.Float64()), quantum.AmplitudeDamping(rng.Float64())), quantum.PhaseDamping(rng.Float64())))
	}
	for _, ch := range chans {
		if len(ch.Kraus) == 0 {
			t.Fatal("the epoch holds an empty channel on a noisy device")
		}
		floor := ch.Floor()
		if floor <= 0 || floor > 1 {
			t.Fatalf("%s: floor %g outside (0, 1]", ch.Name, floor)
		}
		for trial := 0; trial < 50; trial++ {
			st := quantum.MustNewState(3)
			for q := 0; q < 3; q++ {
				st.Apply1Q(q, quantum.PRX(7*rng.Float64(), 7*rng.Float64()))
				st.ApplyCZ(q, (q+1)%3)
			}
			q := rng.Intn(3)
			rho, err := st.QubitDensity(q)
			if err != nil {
				t.Fatal(err)
			}
			u := quantum.Mul2(quantum.RZ(7*rng.Float64()), quantum.PRX(7*rng.Float64(), 7*rng.Float64()))
			if w0 := rho.After(u).Weight(ch.Kraus[0]); w0 < floor-1e-12 {
				t.Errorf("%s (%d branches): Weight(K0) = %.15g under the floor %.15g", ch.Name, len(ch.Kraus), w0, floor)
			}
		}
	}
}

// TestPendingRenormalisesBeforeUnderflow pushes sites with an absurdly low
// floor straight onto a pending: the running floor product crosses
// minDeferredNorm on the fourth, which must flush every waiting operator and
// hand back a unit-norm state instead of letting the norm sink further.
func TestPendingRenormalisesBeforeUnderflow(t *testing.T) {
	st := quantum.MustNewState(2)
	if err := st.Apply1Q(0, quantum.H); err != nil {
		t.Fatal(err)
	}
	p := new(pending)
	p.reset()
	weak := trajStep{kind: stepNoise, q: 0, floor: 1e-30}
	weak.accept[0][0], weak.accept[1][1] = 1e-15, 1e-15
	p.push(1, quantum.X)
	for i := 1; i <= 4; i++ {
		if err := p.accept(st, &weak); err != nil {
			t.Fatal(err)
		}
		if i < 4 && (p.mask != 0b11 || math.Abs(st.Norm()-1) > 1e-12) {
			t.Fatalf("after %d sites: mask %b, norm %g — nothing should have been applied yet", i, p.mask, st.Norm())
		}
	}
	if p.mask != 0 || p.floor != 1 {
		t.Errorf("after the guard fired: mask %b, floor product %g, want an empty pending", p.mask, p.floor)
	}
	if n := st.Norm(); math.Abs(n-1) > 1e-12 {
		t.Errorf("norm %g after the guard fired, want 1", n)
	}
	// (H on qubit 0, then X on qubit 1) of |00>, the scalar 1e-60 divided out.
	for idx, want := range []float64{0, 0, math.Sqrt2 / 2, math.Sqrt2 / 2} {
		if got := st.Amplitude(idx); math.Abs(real(got)-want) > 1e-12 || math.Abs(imag(got)) > 1e-12 {
			t.Errorf("amplitude %d = %v, want %g", idx, got, want)
		}
	}
}

// TestExactSiteRefusesVanishedState covers the trace guard of the exact
// path: a state whose norm² has fallen under 1e-300 has no branch weights to
// take, and the site says so instead of dividing by it.
func TestExactSiteRefusesVanishedState(t *testing.T) {
	cj, _, err := New20Q(101).compiledFor(NativeGHZLine(2))
	if err != nil {
		t.Fatal(err)
	}
	var p pending
	p.reset()
	st := quantum.MustNewState(cj.compactQubits)
	var tiny quantum.Matrix2
	tiny[0][0], tiny[1][1] = 1e-160, 1e-160
	if err := st.Apply1Q(0, tiny); err != nil {
		t.Fatal(err)
	}
	for i := range cj.noisy {
		if s := &cj.noisy[i]; s.hasNoise() {
			if _, err := resolve(st, &p, s); err == nil {
				t.Error("resolve took branch weights from a state of norm² 1e-320")
			}
			return
		}
	}
	t.Fatal("GHZ(2) compiled without a noise site")
}

// TestTreeJobAllocs bounds the allocations of a wide tree job: the frames
// — pending operators and fork streams — hang off the pooled branchJob,
// one per fork depth reached, made once, not off each fork.
func TestTreeJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops released fork states at random (see TestNoisyHotPathAllocs)")
	}
	cj := pinnedWideJob(t)
	rng := rand.New(rand.NewSource(1))
	if _, _, err := cj.runBranchTree(50, rng); err != nil { // warm the state pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := cj.runBranchTree(50, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("12q x 50-shot tree job: %.0f allocs, want <= 12 (measured 4; 6 before the job's scratch was pooled)", allocs)
	}
}
