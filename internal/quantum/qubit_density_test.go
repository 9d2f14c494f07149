package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// channelAction is a channel's exact, ensemble action on one qubit's
// reduced density: ρ' = Σ_k KρK†.
func channelAction(d QubitDensity, ch Channel) QubitDensity {
	var out QubitDensity
	for _, k := range ch.Kraus {
		kd := d.After(k)
		out.P0 += kd.P0
		out.P1 += kd.P1
		out.C += kd.C
	}
	return out
}

// purity is Tr(ρ²): 1 for a pure qubit, 1/2 for a maximally mixed one.
func purity(d QubitDensity) float64 { return d.P0*d.P0 + d.P1*d.P1 + 2*abs2(d.C) }

func mustQubitDensity(t *testing.T, s *State, q int) QubitDensity {
	t.Helper()
	d, err := s.QubitDensity(q)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReducedDensityProductState(t *testing.T) {
	s := MustNewState(3)
	s.Apply1Q(1, X) // |010>, fully separable
	d := mustQubitDensity(t, s, 1)
	if math.Abs(d.P1-1) > 1e-12 || cmplx.Abs(d.C) > 1e-12 {
		t.Errorf("qubit 1 should be |1><1|, got %+v", d)
	}
	if p := purity(d); math.Abs(p-1) > 1e-12 {
		t.Errorf("product-state purity = %g, want 1", p)
	}
}

func TestReducedDensityGHZMemberIsMaximallyMixed(t *testing.T) {
	s := MustNewState(4)
	if err := PrepareGHZ(s); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		d := mustQubitDensity(t, s, q)
		if math.Abs(d.P0-0.5) > 1e-12 || cmplx.Abs(d.C) > 1e-12 {
			t.Errorf("GHZ qubit %d = %+v, want P0 0.5 and no coherence", q, d)
		}
		if p := purity(d); math.Abs(p-0.5) > 1e-12 {
			t.Errorf("GHZ qubit %d purity = %g, want 0.5", q, p)
		}
	}
}

func TestReducedDensityPartialEntanglement(t *testing.T) {
	// RY(θ) then CNOT: the control's purity falls with θ from 1 to 1/2.
	purityAt := func(theta float64) float64 {
		s := MustNewState(2)
		s.Apply1Q(0, RY(theta))
		s.Apply2Q(0, 1, CNOT01)
		return purity(mustQubitDensity(t, s, 0))
	}
	p1, p2, p3 := purityAt(0.3), purityAt(0.9), purityAt(math.Pi/2)
	if !(p1 > p2 && p2 > p3) {
		t.Errorf("purity not monotone in θ: %g, %g, %g", p1, p2, p3)
	}
	if math.Abs(p3-0.5) > 1e-12 {
		t.Errorf("Bell-state purity = %g, want 0.5", p3)
	}
}

func TestReducedDensityValidation(t *testing.T) {
	s := MustNewState(2)
	for _, q := range []int{5, -1} {
		if _, err := s.QubitDensity(q); err == nil {
			t.Errorf("qubit %d should fail", q)
		}
	}
}

// TestDensityMatchesStateForUnitaries: a single-qubit gate carried through
// the reduced density (After) matches the density read after applying the
// gate to the state, entangled or not.
func TestDensityMatchesStateForUnitaries(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := MustNewState(3)
	gates := []Matrix2{H, X, T, RY(0.7), PRX(1.1, 0.3)}
	for i := 0; i < 12; i++ {
		q := rng.Intn(3)
		g := gates[rng.Intn(len(gates))]
		want := mustQubitDensity(t, s, q).After(g)
		if err := s.Apply1Q(q, g); err != nil {
			t.Fatal(err)
		}
		got := mustQubitDensity(t, s, q)
		if math.Abs(got.P0-want.P0) > 1e-9 || math.Abs(got.P1-want.P1) > 1e-9 || cmplx.Abs(got.C-want.C) > 1e-9 {
			t.Fatalf("step %d: density after the gate %+v, After predicted %+v", i, got, want)
		}
		if i%3 == 0 {
			a := rng.Intn(3)
			if err := s.Apply2Q(a, (a+1)%3, CZ); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestChannelExactActionAmplitudeDamping(t *testing.T) {
	// |1><1| under amplitude damping gamma: P(1) = 1-gamma exactly.
	s := MustNewState(1)
	s.Apply1Q(0, X)
	gamma := 0.3
	d := channelAction(mustQubitDensity(t, s, 0), AmplitudeDamping(gamma))
	if math.Abs(d.P1-(1-gamma)) > 1e-12 || math.Abs(d.P0+d.P1-1) > 1e-12 {
		t.Errorf("after damping %+v, want P(1) = %g and unit trace", d, 1-gamma)
	}
}

func TestChannelExactActionDephasing(t *testing.T) {
	// |+><+| under phase damping lambda: coherence scales by sqrt(1-lambda).
	s := MustNewState(1)
	s.Apply1Q(0, H)
	lambda := 0.6
	d := channelAction(mustQubitDensity(t, s, 0), PhaseDamping(lambda))
	if want := 0.5 * math.Sqrt(1-lambda); math.Abs(cmplx.Abs(d.C)-want) > 1e-12 {
		t.Errorf("coherence = %g, want %g", cmplx.Abs(d.C), want)
	}
	if math.Abs(d.P0-0.5) > 1e-12 {
		t.Error("dephasing changed populations")
	}
}

func TestDepolarizingReducesPurity(t *testing.T) {
	// p = 0.75 is full depolarization: maximally mixed, purity 1/2.
	d := channelAction(mustQubitDensity(t, MustNewState(1), 0), Depolarizing(0.75))
	if p := purity(d); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("purity = %g, want 0.5", p)
	}
}

// TestTrajectoriesConvergeToDensity is the critical validation: trajectory
// averages converge to the channel's exact action on the reduced density.
func TestTrajectoriesConvergeToDensity(t *testing.T) {
	const trials = 4000
	rng := rand.New(rand.NewSource(62))
	gamma, lambda := 0.25, 0.4
	prepare := func() *State {
		s := MustNewState(2)
		s.Apply1Q(0, RY(1.0))
		s.Apply1Q(1, H)
		s.Apply2Q(0, 1, CZ)
		return s
	}

	// Exact: each channel acts on its own qubit's reduced density.
	pre := prepare()
	d0 := channelAction(mustQubitDensity(t, pre, 0), AmplitudeDamping(gamma))
	d1 := channelAction(mustQubitDensity(t, pre, 1), PhaseDamping(lambda))
	wantZ0, wantZ1 := d0.P0-d0.P1, d1.P0-d1.P1

	sumZ0, sumZ1 := 0.0, 0.0
	for i := 0; i < trials; i++ {
		s := prepare()
		if err := s.ApplyChannel(0, AmplitudeDamping(gamma), rng); err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyChannel(1, PhaseDamping(lambda), rng); err != nil {
			t.Fatal(err)
		}
		z0, _ := s.ExpectationZ(0)
		z1, _ := s.ExpectationZ(1)
		sumZ0 += z0
		sumZ1 += z1
	}
	if got := sumZ0 / trials; math.Abs(got-wantZ0) > 0.05 {
		t.Errorf("<Z0>: trajectories %g vs exact %g", got, wantZ0)
	}
	if got := sumZ1 / trials; math.Abs(got-wantZ1) > 0.05 {
		t.Errorf("<Z1>: trajectories %g vs exact %g", got, wantZ1)
	}
}
