package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randomMatrix2 returns a dense, generally non-unitary 2x2 operator.
func randomMatrix2(rng *rand.Rand) Matrix2 {
	var m Matrix2
	for i := range m {
		for j := range m[i] {
			m[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return m
}

// bruteWeight is ||K|ψ>||² the long way: apply K to a copy and sum squares.
// It is the oracle the O(1) weight formula is pinned against, independent of
// both execution engines.
func bruteWeight(s *State, q int, k Matrix2) float64 {
	c := s.Clone()
	bit := 1 << uint(q)
	for i0 := range c.amps {
		if i0&bit != 0 {
			continue
		}
		a0, a1 := c.amps[i0], c.amps[i0|bit]
		c.amps[i0] = k[0][0]*a0 + k[0][1]*a1
		c.amps[i0|bit] = k[1][0]*a0 + k[1][1]*a1
	}
	n := c.Norm()
	return n * n
}

func maxAmpDiff(a, b *State) float64 {
	worst := 0.0
	for i := range a.amps {
		if d := cmplx.Abs(a.amps[i] - b.amps[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestQubitDensityWeightMatchesBruteForce is the weight-formula property:
// over random normalised states of 1..8 qubits and every qubit, the weight
// read off the reduced density matrix equals ||K|ψ>||² computed by applying
// K, for random non-unitary K — directly, and through After(U) against
// applying U to the state first.
func TestQubitDensityWeightMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 4; trial++ {
			s := randomState(n, rng)
			for q := 0; q < n; q++ {
				rho, err := s.QubitDensity(q)
				if err != nil {
					t.Fatal(err)
				}
				if tr := rho.P0 + rho.P1; math.Abs(tr-1) > 1e-12 {
					t.Fatalf("n=%d q=%d: trace %g, want 1", n, q, tr)
				}
				k, u := randomMatrix2(rng), PRX(6*rng.Float64(), 6*rng.Float64())
				if got, want := rho.Weight(k), bruteWeight(s, q, k); math.Abs(got-want) > 1e-12*(1+want) {
					t.Errorf("n=%d q=%d: Weight = %.15g, brute force %.15g", n, q, got, want)
				}
				rotated := s.Clone()
				if err := rotated.Apply1Q(q, u); err != nil {
					t.Fatal(err)
				}
				if got, want := rho.After(u).Weight(k), bruteWeight(rotated, q, k); math.Abs(got-want) > 1e-12*(1+want) {
					t.Errorf("n=%d q=%d: After(U).Weight = %.15g, brute force on U|ψ> %.15g", n, q, got, want)
				}
			}
		}
	}
}

// TestApplyCZMatchesGenericKernel checks the sign-flip CZ against the 4x4
// kernel for every ordered qubit pair.
func TestApplyCZMatchesGenericKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 2; n <= 8; n++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				s := randomState(n, rng)
				want := s.Clone()
				if err := s.ApplyCZ(a, b); err != nil {
					t.Fatal(err)
				}
				if err := want.Apply2Q(a, b, CZ); err != nil {
					t.Fatal(err)
				}
				if d := maxAmpDiff(s, want); d != 0 {
					t.Errorf("n=%d CZ(%d,%d): amplitudes differ by %g", n, a, b, d)
				}
			}
		}
	}
	s := MustNewState(2)
	if err := s.ApplyCZ(0, 0); err == nil {
		t.Error("ApplyCZ accepted a repeated qubit")
	}
	if err := s.ApplyCZ(0, 2); err == nil {
		t.Error("ApplyCZ accepted an out-of-range qubit")
	}
}

// TestApply1QKernelsMatchPairFormula pins both single-qubit kernels to the
// per-pair definition a0' = m00·a0 + m01·a1, a1' = m10·a0 + m11·a1, each
// product rounded on its own (mulRounded, so the reference is the same on
// every port), with exact equality (== does not tell a zero's sign): the
// block walk on every qubit of 1-, 2-, 5- and 15-qubit registers, and the
// real-diagonal fast path.
func TestApply1QKernelsMatchPairFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	reference := func(amps []complex128, q int, m Matrix2) {
		bit := 1 << uint(q)
		for p := 0; p < len(amps)/2; p++ {
			i0 := ((p &^ (bit - 1)) << 1) | (p & (bit - 1))
			a0, a1 := amps[i0], amps[i0|bit]
			amps[i0] = mulRounded(m[0][0], a0) + mulRounded(m[0][1], a1)
			amps[i0|bit] = mulRounded(m[1][0], a0) + mulRounded(m[1][1], a1)
		}
	}
	mats := map[string]Matrix2{
		"dense":         randomMatrix2(rng),
		"real-diagonal": {{complex(0.9995, 0), 0}, {0, complex(0.9990, 0)}},
		"diagonal":      RZ(1.3), // complex entries: stays on the dense path
	}
	for _, n := range []int{1, 2, 5, 15} { // 15 qubits: blocks of up to 2^14 amplitudes
		for name, m := range mats {
			for q := 0; q < n; q++ {
				s := randomState(n, rng)
				want := s.Clone()
				if err := s.Apply1Q(q, m); err != nil {
					t.Fatal(err)
				}
				reference(want.amps, q, m)
				if d := maxAmpDiff(s, want); d != 0 {
					t.Errorf("n=%d q=%d %s: kernel differs from the pair formula by %g", n, q, name, d)
				}
			}
		}
	}
}

// TestApplyGateChannelMatchesSequential checks the fused noise site against
// its definition: under the same seed, ApplyGateChannel picks the branch
// Apply1Q-then-ApplyChannel picks, lands on the same amplitudes, and leaves
// the state normalised. Strong channels make every branch reachable.
func TestApplyGateChannelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ch := Compose(Compose(Depolarizing(0.4), AmplitudeDamping(0.3)), PhaseDamping(0.5))
	for n := 1; n <= 8; n++ {
		for q := 0; q < n; q++ {
			for trial := 0; trial < 8; trial++ {
				fused := randomState(n, rng)
				seq := fused.Clone()
				u := PRX(6*rng.Float64(), 6*rng.Float64())
				seed := rng.Int63()
				if err := fused.ApplyGateChannel(q, u, ch, rand.New(rand.NewSource(seed))); err != nil {
					t.Fatal(err)
				}
				if err := seq.Apply1Q(q, u); err != nil {
					t.Fatal(err)
				}
				if err := seq.ApplyChannel(q, ch, rand.New(rand.NewSource(seed))); err != nil {
					t.Fatal(err)
				}
				if d := maxAmpDiff(fused, seq); d > 1e-12 {
					t.Errorf("n=%d q=%d: fused and sequential sites differ by %g (different branch?)", n, q, d)
				}
				if norm := fused.Norm(); math.Abs(norm-1) > 1e-12 {
					t.Errorf("n=%d q=%d: norm %g after fused site, want 1", n, q, norm)
				}
			}
		}
	}
}

var benchSink float64

func benchState(n int) *State {
	return randomState(n, rand.New(rand.NewSource(int64(n))))
}

func BenchmarkQubitDensity(b *testing.B) {
	for _, n := range []int{5, 12, 16} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			s := benchState(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rho, _ := s.QubitDensity(i % n)
				benchSink += rho.P0
			}
		})
	}
}

func BenchmarkApplyCZ(b *testing.B) {
	for _, n := range []int{5, 12, 16} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			s := benchState(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ApplyCZ(i%n, (i+1)%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleWeighted times a leaf's sampling: the weighted probability
// pass with every qubit weighted, then 50 alias draws.
func BenchmarkSampleWeighted(b *testing.B) {
	for _, n := range []int{5, 12, 16} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			s := benchState(n)
			var w OutcomeWeights
			for q := 0; q < n; q++ {
				w.SetDiagonal(q, Matrix2{{1, 0}, {0, complex(0.9, 0.1)}})
			}
			rng := rand.New(rand.NewSource(1))
			dst := make([]int, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.SampleWeightedInto(dst, 50, rng, &w)
			}
		})
	}
}

// BenchmarkNoiseSite times one fused PRX + composed-channel site, the unit
// of work of the trajectory engine.
func BenchmarkNoiseSite(b *testing.B) {
	ch := Compose(Compose(Depolarizing(0.001), AmplitudeDamping(0.0005)), PhaseDamping(0.0005))
	u := PRX(0.7, 1.9)
	for _, n := range []int{12, 16} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			s := benchState(n)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ApplyGateChannel(i%n, u, ch, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// withoutPhases returns m with each row multiplied by the conjugate phase of
// its diagonal entry: the remainder, real on the diagonal, of a pending
// flush's phase split.
func withoutPhases(m Matrix2) Matrix2 {
	for i := range m {
		a := cmplx.Abs(m[i][i])
		ph := cmplx.Conj(m[i][i]) / complex(a, 0)
		m[i][0], m[i][1] = ph*m[i][0], ph*m[i][1]
		m[i][i] = complex(a, 0)
	}
	return m
}

// BenchmarkApply1Q times the single-qubit kernel on its three matrix
// shapes — a dense gate·Kraus product, the same product with its phases
// factored out (the remainder a pending flush writes) and the real-diagonal
// Kraus operator that follows a CZ — on the lowest qubits (pairs adjacent,
// then blocks of 2 and 4 amplitudes), a middle and the highest qubit, where
// the pair stride differs, on the Go rows and on the vector rows (skipped on
// a host without AVX2).
func BenchmarkApply1Q(b *testing.B) {
	shapes := []struct {
		name string
		m    Matrix2
	}{
		{"dense", Mul2(AmplitudeDamping(0.0005).Kraus[0], PRX(0.7, 1.9))},
		{"remainder", withoutPhases(Mul2(AmplitudeDamping(0.0005).Kraus[0], Mul2(PRX(0.7, 1.9), RZ(0.4))))},
		{"real-diagonal", scale2(AmplitudeDamping(0.0005).Kraus[0], 0.9995)},
	}
	defer setVectorRows(true)
	for _, n := range []int{12, 16} {
		for _, sh := range shapes {
			for _, q := range []int{0, 1, 2, 3, 5, 11} {
				for _, rows := range []string{"go", "vector"} {
					b.Run(fmt.Sprintf("%dq/%s/q%d/%s", n, sh.name, q, rows), func(b *testing.B) {
						if rows == "vector" && !hostVectorRows {
							b.Skip("no AVX2 on this host")
						}
						setVectorRows(rows == "vector")
						s := benchState(n)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := s.Apply1Q(q, sh.m); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
