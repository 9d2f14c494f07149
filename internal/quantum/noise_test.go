package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChannelsAreTracePreserving(t *testing.T) {
	for _, ch := range []Channel{
		AmplitudeDamping(0), AmplitudeDamping(0.3), AmplitudeDamping(1),
		PhaseDamping(0), PhaseDamping(0.5), PhaseDamping(1),
		Depolarizing(0), Depolarizing(0.1), Depolarizing(0.75), Depolarizing(1),
	} {
		if !ch.Valid(1e-12) {
			t.Errorf("channel %s not trace-preserving", ch.Name)
		}
	}
}

func TestChannelParameterClamping(t *testing.T) {
	if !AmplitudeDamping(-0.5).Valid(1e-12) {
		t.Error("negative gamma should clamp to a valid channel")
	}
	if !Depolarizing(2).Valid(1e-12) {
		t.Error("p>1 should clamp to a valid channel")
	}
}

func TestAmplitudeDampingDecaysExcitedState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const trials = 3000
	gamma := 0.4
	decayed := 0
	for i := 0; i < trials; i++ {
		s := MustNewState(1)
		s.Apply1Q(0, X) // |1>
		if err := s.ApplyChannel(0, AmplitudeDamping(gamma), rng); err != nil {
			t.Fatal(err)
		}
		if s.Probability(0) > 0.99 {
			decayed++
		}
	}
	frac := float64(decayed) / trials
	if math.Abs(frac-gamma) > 0.04 {
		t.Errorf("decay fraction %.3f, want ~%.2f", frac, gamma)
	}
}

func TestAmplitudeDampingFixesGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := MustNewState(1) // |0>
	for i := 0; i < 50; i++ {
		if err := s.ApplyChannel(0, AmplitudeDamping(0.5), rng); err != nil {
			t.Fatal(err)
		}
	}
	if p := s.Probability(0); math.Abs(p-1) > 1e-9 {
		t.Errorf("ground state decayed under amplitude damping: P(0)=%g", p)
	}
}

func TestPhaseDampingErodesCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const trials = 2000
	lambda := 0.6
	// |+> under phase damping: averaged over trajectories, <X> shrinks to
	// sqrt(1-lambda). Estimate <X> = P(+) - P(-) by rotating into Z basis.
	sumX := 0.0
	for i := 0; i < trials; i++ {
		s := MustNewState(1)
		s.Apply1Q(0, H) // |+>
		if err := s.ApplyChannel(0, PhaseDamping(lambda), rng); err != nil {
			t.Fatal(err)
		}
		s.Apply1Q(0, H) // X basis -> Z basis
		z, _ := s.ExpectationZ(0)
		sumX += z
	}
	got := sumX / trials
	want := math.Sqrt(1 - lambda)
	if math.Abs(got-want) > 0.05 {
		t.Errorf("<X> after phase damping = %.3f, want ~%.3f", got, want)
	}
}

func TestPhaseDampingPreservesPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := MustNewState(1)
	s.Apply1Q(0, RY(1.1)) // cos/sin populations
	p1Before := s.Probability(1)
	for i := 0; i < 30; i++ {
		if err := s.ApplyChannel(0, PhaseDamping(0.7), rng); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(s.Probability(1)-p1Before) > 1e-9 {
		t.Errorf("phase damping changed populations: %g -> %g", p1Before, s.Probability(1))
	}
}

func TestDepolarizingDrivesToMaximallyMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const trials = 4000
	ones := 0
	for i := 0; i < trials; i++ {
		s := MustNewState(1) // |0>
		if err := s.ApplyChannel(0, Depolarizing(0.75), rng); err != nil {
			t.Fatal(err)
		}
		// p=0.75 is the fully-depolarizing point: outcome is uniform.
		out, err := s.MeasureQubit(0, rng)
		if err != nil {
			t.Fatal(err)
		}
		ones += out
	}
	frac := float64(ones) / trials
	if math.Abs(frac-0.375) > 0.03 {
		// p/3 each for X and Y flip |0>→|1|; expected P(1) = 2*0.25 = 0.5?
		// For the Kraus form used, P(1) = 2p/3 · ... compute directly:
		// |0> branches: I (1-p), X (p/3 →|1>), Y (p/3 →|1>), Z (p/3 →|0>).
		// P(1) = 2p/3 = 0.5 at p = 0.75.
		t.Logf("note: measured %.3f", frac)
	}
	want := 2.0 * 0.75 / 3
	if math.Abs(frac-want) > 0.03 {
		t.Errorf("P(1) after depolarizing(0.75) on |0> = %.3f, want ~%.3f", frac, want)
	}
}

func TestApplyChannelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := MustNewState(2)
	if err := s.ApplyChannel(5, AmplitudeDamping(0.1), rng); err == nil {
		t.Error("expected range error")
	}
	if err := s.ApplyChannel(0, Channel{Name: "empty"}, rng); err == nil {
		t.Error("expected error for empty channel")
	}
}

// Trajectories preserve normalization regardless of channel or state.
func TestTrajectoryNormPreservationProperty(t *testing.T) {
	f := func(seed int64, gRaw, lRaw, pRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := math.Abs(math.Mod(gRaw, 1))
		l := math.Abs(math.Mod(lRaw, 1))
		p := math.Abs(math.Mod(pRaw, 1))
		n := 1 + rng.Intn(4)
		s := randomState(n, rng)
		chans := []Channel{AmplitudeDamping(g), PhaseDamping(l), Depolarizing(p)}
		for i := 0; i < 8; i++ {
			if err := s.ApplyChannel(rng.Intn(n), chans[rng.Intn(3)], rng); err != nil {
				return false
			}
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadoutModelCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := &ReadoutModel{P10: []float64{1, 0}, P01: []float64{0, 1}}
	// Qubit 0 always flips 0->1; qubit 1 always flips 1->0.
	got := m.Corrupt(0b10, rng)
	if got != 0b01 {
		t.Errorf("Corrupt(10) = %02b, want 01", got)
	}
}

func TestReadoutModelNilPassthrough(t *testing.T) {
	var m *ReadoutModel
	rng := rand.New(rand.NewSource(1))
	if got := m.Corrupt(5, rng); got != 5 {
		t.Errorf("nil model should pass through, got %d", got)
	}
	if f := m.AssignmentFidelity(0); f != 1 {
		t.Errorf("nil model fidelity = %g, want 1", f)
	}
}

func TestUniformReadoutStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	eps := 0.05
	m := UniformReadout(4, eps)
	if got := m.AssignmentFidelity(2); math.Abs(got-(1-eps)) > 1e-12 {
		t.Errorf("assignment fidelity = %g, want %g", got, 1-eps)
	}
	const trials = 20000
	flips := 0
	for i := 0; i < trials; i++ {
		if m.Corrupt(0, rng)&1 != 0 {
			flips++
		}
	}
	frac := float64(flips) / trials
	if math.Abs(frac-eps) > 0.01 {
		t.Errorf("flip rate %.4f, want ~%.2f", frac, eps)
	}
}

func TestAssignmentFidelityOutOfRange(t *testing.T) {
	m := UniformReadout(2, 0.1)
	if f := m.AssignmentFidelity(10); f != 1 {
		t.Errorf("out-of-range qubit fidelity = %g, want 1", f)
	}
}

// TestKrausForkPrimitivesMatchChannel checks the shot-branching
// decomposition of ApplyChannel: computing every branch weight from the
// qubit's density, picking a branch, and applying it with ApplyKraus must
// reproduce the channel's trajectory ensemble — weights sum to 1 (trace
// preservation) and each branch lands on a normalized state.
func TestKrausForkPrimitivesMatchChannel(t *testing.T) {
	base := MustNewState(3)
	if err := base.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	if err := base.Apply2Q(0, 1, CZ); err != nil {
		t.Fatal(err)
	}
	ch := Compose(Depolarizing(0.1), AmplitudeDamping(0.2))
	rho, err := base.QubitDensity(1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, k := range ch.Kraus {
		w := rho.Weight(k)
		if w < 0 {
			t.Fatalf("negative branch weight %g", w)
		}
		total += w
		if w < 1e-12 {
			continue
		}
		fork := base.Clone()
		if err := fork.ApplyKraus(1, k, w); err != nil {
			t.Fatal(err)
		}
		if n := fork.Norm(); math.Abs(n-1) > 1e-9 {
			t.Errorf("fork norm = %g after ApplyKraus, want 1", n)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("branch weights sum to %g, want 1 (trace preservation)", total)
	}
	if err := base.Clone().ApplyKraus(0, I2, 0); err == nil {
		t.Error("ApplyKraus accepted a zero branch weight")
	}
	if _, err := base.QubitDensity(7); err == nil {
		t.Error("QubitDensity accepted an out-of-range qubit")
	}
}

// TestAcquireStateCopyForksIndependently checks the pooled fork primitive:
// the copy matches the source and mutating one leaves the other alone.
func TestAcquireStateCopyForksIndependently(t *testing.T) {
	src := MustNewState(2)
	if err := src.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	fork, err := AcquireStateCopy(src)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseState(fork)
	if f, err := fork.Fidelity(src); err != nil || math.Abs(f-1) > 1e-12 {
		t.Fatalf("fork fidelity = %g (%v), want 1", f, err)
	}
	if err := fork.Apply1Q(1, X); err != nil {
		t.Fatal(err)
	}
	if p := src.Probability(2); p != 0 {
		t.Errorf("mutating the fork changed the source: P(|10>) = %g", p)
	}
	if err := fork.Set(src); err != nil {
		t.Fatal(err)
	}
	if f, _ := fork.Fidelity(src); math.Abs(f-1) > 1e-12 {
		t.Errorf("Set did not restore the checkpoint: fidelity %g", f)
	}
	if err := fork.Set(MustNewState(3)); err == nil {
		t.Error("Set accepted a size-mismatched source")
	}
	if _, err := AcquireStateCopy(nil); err == nil {
		t.Error("AcquireStateCopy accepted nil")
	}
}

// TestBranchWalkAndFloor pins the drawn-site primitive: Floor is λmin(K0†K0)
// on the channels whose spectrum is known in closed form; Branch bins a draw
// by cumulative weight, extends its weight cache only as far as the draw
// needs, reuses it across draws, falls back to the heaviest branch when
// rounding leaves r past the total, and refuses a site with no viable
// branch; on an unnormalised state the trace-normalised density gives the
// weights of the normalised one.
func TestBranchWalkAndFloor(t *testing.T) {
	for _, tc := range []struct {
		ch   Channel
		want float64
	}{
		{Depolarizing(0.03), 0.97},
		{AmplitudeDamping(0.2), 0.8},
		{PhaseDamping(0.36), 0.9},
		{Compose(Depolarizing(0.03), AmplitudeDamping(0.2)), 0.97 * 0.8},
		{Channel{Name: "empty"}, 0},
	} {
		if got := tc.ch.Floor(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Floor = %.15g, want %.15g", tc.ch.Name, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(12))
	s := randomState(3, rng)
	rho, err := s.QubitDensity(1)
	if err != nil {
		t.Fatal(err)
	}
	ch := Compose(Depolarizing(0.3), AmplitudeDamping(0.4))
	var all []float64
	for _, k := range ch.Kraus {
		all = append(all, rho.Weight(k))
	}
	var w []float64
	bi, w, err := ch.Branch(rho, all[0]/2, w)
	if err != nil || bi != 0 || len(w) != 1 {
		t.Fatalf("draw under the first weight: branch %d, %d weights cached, err %v; want branch 0 from one weight", bi, len(w), err)
	}
	bi, w, err = ch.Branch(rho, all[0]+all[1]+all[2]/2, w)
	if err != nil || bi != 2 || len(w) != 3 {
		t.Fatalf("draw inside the third weight: branch %d, %d weights cached, err %v", bi, len(w), err)
	}
	if bi, _, _ = ch.Branch(rho, all[0]/2, w); bi != 0 {
		t.Errorf("a later small draw on the longer cache picked branch %d, want 0", bi)
	}
	heaviest := 0
	for i, p := range all {
		if p > all[heaviest] {
			heaviest = i
		}
	}
	if bi, w, err = ch.Branch(rho, 1.5, w); err != nil || bi != heaviest || len(w) != len(all) {
		t.Errorf("draw past the total weight: branch %d (err %v), want the heaviest, %d", bi, err, heaviest)
	}
	if _, _, err := ch.Branch(QubitDensity{}, 0.5, nil); err == nil {
		t.Error("Branch picked a branch on a zero density")
	}

	scaled := s.Clone()
	for i := range scaled.amps {
		scaled.amps[i] *= 1e-40
	}
	raw, _ := scaled.QubitDensity(1)
	norm, trace := raw.Normalized()
	if math.Abs(trace/1e-80-1) > 1e-9 {
		t.Errorf("trace = %g, want the norm² 1e-80", trace)
	}
	for i, k := range ch.Kraus {
		if got := norm.Weight(k); math.Abs(got-all[i]) > 1e-12 {
			t.Errorf("branch %d: weight %.15g from the normalised density, %.15g on the unit state", i, got, all[i])
		}
	}
}
