package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Error("expected error for 0 qubits")
	}
	if _, err := NewState(MaxQubits + 1); err == nil {
		t.Error("expected error above MaxQubits")
	}
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumQubits() != 3 || s.Dim() != 8 {
		t.Errorf("got n=%d dim=%d, want 3, 8", s.NumQubits(), s.Dim())
	}
	if s.Probability(0) != 1 {
		t.Error("fresh state should be |000>")
	}
}

func TestMustNewStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewState(-1)
}

func TestApply1QValidation(t *testing.T) {
	s := MustNewState(2)
	if err := s.Apply1Q(-1, X); err == nil {
		t.Error("expected error for negative qubit")
	}
	if err := s.Apply1Q(2, X); err == nil {
		t.Error("expected error for out-of-range qubit")
	}
}

func TestApply2QValidation(t *testing.T) {
	s := MustNewState(2)
	if err := s.Apply2Q(0, 0, CZ); err == nil {
		t.Error("expected error for duplicate qubits")
	}
	if err := s.Apply2Q(0, 5, CZ); err == nil {
		t.Error("expected error for out-of-range qubit")
	}
}

func TestXFlipsQubit(t *testing.T) {
	s := MustNewState(3)
	if err := s.Apply1Q(1, X); err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0b010); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(|010>) = %g, want 1", p)
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := MustNewState(1)
	if err := s.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(1)-0.5) > 1e-12 {
		t.Errorf("H|0> probabilities = %g, %g, want 0.5 each", s.Probability(0), s.Probability(1))
	}
	// H twice is identity.
	if err := s.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-1) > 1e-12 {
		t.Error("HH should be identity")
	}
}

func TestBellState(t *testing.T) {
	s := MustNewState(2)
	if err := s.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply2Q(0, 1, CNOT01); err != nil {
		t.Fatal(err)
	}
	for idx, want := range map[int]float64{0b00: 0.5, 0b11: 0.5, 0b01: 0, 0b10: 0} {
		if p := s.Probability(idx); math.Abs(p-want) > 1e-12 {
			t.Errorf("Bell P(%02b) = %g, want %g", idx, p, want)
		}
	}
}

func TestCNOTDirections(t *testing.T) {
	// CNOT01: control = low qubit (arg 1), target = high qubit (arg 2).
	s := MustNewState(2)
	s.Apply1Q(0, X) // state |01> (qubit0 = 1)
	s.Apply2Q(0, 1, CNOT01)
	if p := s.Probability(0b11); math.Abs(p-1) > 1e-12 {
		t.Errorf("CNOT01 from |01>: P(11) = %g, want 1", p)
	}
	// CNOT10: control = high qubit, target = low qubit.
	s2 := MustNewState(2)
	s2.Apply1Q(1, X) // state |10>
	s2.Apply2Q(0, 1, CNOT10)
	if p := s2.Probability(0b11); math.Abs(p-1) > 1e-12 {
		t.Errorf("CNOT10 from |10>: P(11) = %g, want 1", p)
	}
}

func TestCZPhase(t *testing.T) {
	s := MustNewState(2)
	s.Apply1Q(0, X)
	s.Apply1Q(1, X) // |11>
	s.Apply2Q(0, 1, CZ)
	if a := s.Amplitude(0b11); cmplx.Abs(a+1) > 1e-12 {
		t.Errorf("CZ|11> amplitude = %v, want -1", a)
	}
}

func TestSWAPGate(t *testing.T) {
	s := MustNewState(2)
	s.Apply1Q(0, X) // |01>
	s.Apply2Q(0, 1, SWAP)
	if p := s.Probability(0b10); math.Abs(p-1) > 1e-12 {
		t.Errorf("SWAP|01>: P(10) = %g, want 1", p)
	}
}

func TestGHZPreparationAndFidelity(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10} {
		s := MustNewState(n)
		if err := PrepareGHZ(s); err != nil {
			t.Fatal(err)
		}
		if f := GHZFidelity(s); math.Abs(f-1) > 1e-10 {
			t.Errorf("n=%d GHZ fidelity = %g, want 1", n, f)
		}
		// Only the all-zero and all-one basis states carry weight.
		for i := 1; i < s.Dim()-1; i++ {
			if s.Probability(i) > 1e-12 {
				t.Errorf("n=%d GHZ has weight %g at %d", n, s.Probability(i), i)
			}
		}
	}
}

// TestParallelKernelMatchesSerial checks the kernels on a 15-qubit state,
// wider than any benchmark job: a GHZ preparation keeps the norm and reaches
// the GHZ state, and Apply2Q writes, bit for bit, the quadruple formula
// m[r][0]·a00 + … + m[r][3]·a11 with every product rounded on its own
// (mulRounded, which no port fuses), for every ordered qubit pair of 2- and
// 5-qubit registers and for random pairs of the 15-qubit one. On amd64,
// which never fuses a multiply-add, that formula is also what Go's complex
// multiply m[r][0]*a00 + … writes, so the kernel keeps the bits it wrote
// before it rounded its products; other ports fuse that expression, so the
// second comparison runs on amd64 only.
func TestParallelKernelMatchesSerial(t *testing.T) {
	s := MustNewState(15)
	if err := PrepareGHZ(s); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm()-1) > 1e-10 {
		t.Errorf("norm after 15-qubit GHZ = %g", s.Norm())
	}
	if f := GHZFidelity(s); math.Abs(f-1) > 1e-10 {
		t.Errorf("15-qubit GHZ fidelity = %g", f)
	}
	rng := rand.New(rand.NewSource(46))
	check := func(n, q1, q2 int) {
		var m Matrix4
		for r := range m {
			for c := range m[r] {
				m[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		got := randomState(n, rng)
		want := got.Clone()
		if err := got.Apply2Q(q1, q2, m); err != nil {
			t.Fatal(err)
		}
		b1, b2 := 1<<uint(q1), 1<<uint(q2)
		for i, a := range want.amps {
			if i&(b1|b2) != 0 {
				continue
			}
			a00, a01, a10, a11 := a, want.amps[i|b1], want.amps[i|b2], want.amps[i|b1|b2]
			for r, j := range [4]int{i, i | b1, i | b2, i | b1 | b2} {
				want.amps[j] = mulRounded(m[r][0], a00) + mulRounded(m[r][1], a01) + mulRounded(m[r][2], a10) + mulRounded(m[r][3], a11)
				if runtime.GOARCH == "amd64" {
					goMul, w := m[r][0]*a00+m[r][1]*a01+m[r][2]*a10+m[r][3]*a11, want.amps[j]
					if math.Float64bits(real(goMul)) != math.Float64bits(real(w)) || math.Float64bits(imag(goMul)) != math.Float64bits(imag(w)) {
						t.Fatalf("n=%d amplitude %d: Go's complex multiply wrote %v, the rounded formula %v", n, j, goMul, want.amps[j])
					}
				}
			}
		}
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d Apply2Q(%d, %d): amplitude %d is %v, the quadruple formula wrote %v", n, q1, q2, i, got.amps[i], want.amps[i])
		}
	}
	for _, n := range []int{2, 5} {
		for q1 := 0; q1 < n; q1++ {
			for q2 := 0; q2 < n; q2++ {
				if q1 != q2 {
					check(n, q1, q2)
				}
			}
		}
	}
	for k := 0; k < 6; k++ {
		q1 := rng.Intn(15)
		check(15, q1, (q1+1+rng.Intn(14))%15)
	}
}

// mulRounded is x*y with each of its four real products rounded on its own,
// summed in the order Go's complex multiply takes: the reference the kernel
// exactness tests compare against on every port.
func mulRounded(x, y complex128) complex128 {
	xr, xi, yr, yi := real(x), imag(x), real(y), imag(y)
	return complex(float64(xr*yr)-float64(xi*yi), float64(xr*yi)+float64(xi*yr))
}

// TestLargePassesAllocateNothing holds the dense passes to zero allocations
// on a 15-qubit state with more than one core available: a pass runs inline
// on the caller's goroutine at every size.
func TestLargePassesAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s := randomState(15, rand.New(rand.NewSource(50)))
	passes := []struct {
		name string
		f    func() error
	}{
		{"Apply1Q", func() error { return s.Apply1Q(7, H) }},
		{"Apply2Q", func() error { return s.Apply2Q(3, 11, CNOT01) }},
		{"ApplyToffoli", func() error { return s.ApplyToffoli(2, 9, 14) }},
	}
	for _, p := range passes {
		var err error
		if allocs := testing.AllocsPerRun(20, func() { err = p.f() }); allocs != 0 {
			t.Errorf("%s on 15 qubits allocates %.1f objects/op, want 0", p.name, allocs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Unitarity of gate application: norm is preserved by any unitary.
func TestUnitaryPreservesNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := randomState(n, rng)
		gates := []Matrix2{X, Y, Z, H, S, T, RX(rng.Float64() * 6), RY(rng.Float64() * 6), RZ(rng.Float64() * 6), PRX(rng.Float64()*6, rng.Float64()*6)}
		for i := 0; i < 10; i++ {
			g := gates[rng.Intn(len(gates))]
			if err := s.Apply1Q(rng.Intn(n), g); err != nil {
				return false
			}
		}
		q1 := rng.Intn(n)
		q2 := (q1 + 1 + rng.Intn(n-1)) % n
		if err := s.Apply2Q(q1, q2, CZ); err != nil {
			return false
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomState(n int, rng *rand.Rand) *State {
	s := MustNewState(n)
	for i := range s.amps {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

func TestInnerProductAndFidelity(t *testing.T) {
	a := MustNewState(2)
	b := MustNewState(2)
	f, err := a.Fidelity(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-12 {
		t.Errorf("identical states fidelity = %g", f)
	}
	b.Apply1Q(0, X)
	f, _ = a.Fidelity(b)
	if f > 1e-12 {
		t.Errorf("orthogonal states fidelity = %g, want 0", f)
	}
	c := MustNewState(3)
	if _, err := a.Fidelity(c); err == nil {
		t.Error("expected dimension-mismatch error")
	}
}

func TestNormalizeZeroStateFails(t *testing.T) {
	s := MustNewState(1)
	s.amps[0] = 0
	if err := s.Normalize(); err == nil {
		t.Error("expected error normalizing zero state")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := MustNewState(2)
	c := s.Clone()
	s.Apply1Q(0, X)
	if c.Probability(0) != 1 {
		t.Error("clone mutated by original's gate")
	}
}

func TestExpectationZ(t *testing.T) {
	s := MustNewState(2)
	if z, _ := s.ExpectationZ(0); math.Abs(z-1) > 1e-12 {
		t.Errorf("<Z> of |0> = %g, want 1", z)
	}
	s.Apply1Q(0, X)
	if z, _ := s.ExpectationZ(0); math.Abs(z+1) > 1e-12 {
		t.Errorf("<Z> of |1> = %g, want -1", z)
	}
	s2 := MustNewState(1)
	s2.Apply1Q(0, H)
	if z, _ := s2.ExpectationZ(0); math.Abs(z) > 1e-12 {
		t.Errorf("<Z> of |+> = %g, want 0", z)
	}
	if _, err := s.ExpectationZ(9); err == nil {
		t.Error("expected range error")
	}
}

func TestMeasureQubitCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := MustNewState(2)
	s.Apply1Q(0, H)
	s.Apply2Q(0, 1, CNOT01)
	out, err := s.MeasureQubit(0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Bell correlations: measuring qubit 0 determines qubit 1.
	out2, err := s.MeasureQubit(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Errorf("Bell measurement outcomes differ: %d vs %d", out, out2)
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Errorf("post-measurement norm = %g", s.Norm())
	}
}

func TestMeasureStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ones := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		s := MustNewState(1)
		s.Apply1Q(0, H)
		out, err := s.MeasureQubit(0, rng)
		if err != nil {
			t.Fatal(err)
		}
		ones += out
	}
	frac := float64(ones) / trials
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("H|0> measurement gave 1 at rate %.3f, want ~0.5", frac)
	}
}

func TestSampleBitstrings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := MustNewState(3)
	PrepareGHZ(s)
	samples := s.SampleBitstrings(4000, rng)
	if len(samples) != 4000 {
		t.Fatalf("got %d samples", len(samples))
	}
	h := Histogram(samples)
	if len(h) != 2 {
		t.Fatalf("GHZ sampling produced %d distinct outcomes, want 2: %v", len(h), h)
	}
	frac := float64(h[0]) / 4000
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("P(000) sampled at %.3f, want ~0.5", frac)
	}
	// Sampling must not collapse the state.
	if f := GHZFidelity(s); math.Abs(f-1) > 1e-12 {
		t.Error("sampling collapsed the state")
	}
}

func TestHistogramConservesShots(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		s := randomState(n, rng)
		shots := 100 + rng.Intn(400)
		h := Histogram(s.SampleBitstrings(shots, rng))
		total := 0
		for _, c := range h {
			total += c
		}
		return total == shots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatBitstring(t *testing.T) {
	cases := []struct {
		idx, n int
		want   string
	}{
		{0, 3, "000"}, {1, 3, "001"}, {4, 3, "100"}, {7, 3, "111"}, {5, 4, "0101"},
	}
	for _, c := range cases {
		if got := FormatBitstring(c.idx, c.n); got != c.want {
			t.Errorf("FormatBitstring(%d, %d) = %q, want %q", c.idx, c.n, got, c.want)
		}
	}
}

func TestResetRestoresGround(t *testing.T) {
	s := MustNewState(4)
	PrepareGHZ(s)
	s.Reset()
	if s.Probability(0) != 1 {
		t.Error("Reset should restore |0000>")
	}
}
