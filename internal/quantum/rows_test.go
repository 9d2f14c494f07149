package quantum

import (
	"math"
	"math/rand"
	"testing"
)

// TestVectorRowsMatchGoRows is the vector rows' exactness gate: on every
// amplitude they write the Go rows' bits, for registers of 1, 2, 5, 12, 14
// and 16 qubits, every qubit, the three row shapes plus a complex diagonal
// (the dense row).
func TestVectorRowsMatchGoRows(t *testing.T) {
	if !hostVectorRows {
		t.Skip("no AVX2 on this host: the Go rows are the only rows")
	}
	defer setVectorRows(true)
	rng := rand.New(rand.NewSource(47))
	cplx := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	re := func() complex128 { return complex(rng.NormFloat64(), 0) }
	shapes := []struct {
		name string
		m    func() Matrix2
	}{
		{"real-diagonal", func() Matrix2 { return Matrix2{{re(), 0}, {0, re()}} }},
		{"remainder", func() Matrix2 { return Matrix2{{re(), cplx()}, {cplx(), re()}} }},
		{"complex-diagonal", func() Matrix2 { return Matrix2{{cplx(), 0}, {0, cplx()}} }},
		{"dense", func() Matrix2 { return Matrix2{{cplx(), cplx()}, {cplx(), cplx()}} }},
	}
	for _, n := range []int{1, 2, 5, 12, 14, 16} {
		for q := 0; q < n; q++ {
			for _, sh := range shapes {
				m := sh.m()
				s := randomState(n, rng)
				vec, ref := s.Clone(), s.Clone()
				setVectorRows(true)
				if err := vec.Apply1Q(q, m); err != nil {
					t.Fatal(err)
				}
				setVectorRows(false)
				if err := ref.Apply1Q(q, m); err != nil {
					t.Fatal(err)
				}
				if i, ok := sameBits(vec, ref); !ok {
					t.Fatalf("n=%d q=%d %s Apply1Q: amplitude %d is %v, the Go row wrote %v", n, q, sh.name, i, vec.amps[i], ref.amps[i])
				}
			}
		}
	}
}

// TestVectorCZMatchesGoWalk is the vector sign flip's exactness gate: for
// every ordered qubit pair of 1- to 16-qubit registers, in turn on one
// state, ApplyCZ with the vector unit on writes the Go walk's bits on every
// amplitude — and so does the kernel itself on the registers below
// vectorCZMin, where ApplyCZ keeps the walk.
func TestVectorCZMatchesGoWalk(t *testing.T) {
	if !hostVectorRows {
		t.Skip("no AVX2 on this host: the Go walk is the only sign flip")
	}
	rng := rand.New(rand.NewSource(48))
	for n := 1; n <= 16; n++ {
		vec := randomState(n, rng)
		ref, kernel := vec.Clone(), vec.Clone()
		small := len(vec.amps) < vectorCZMin
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if err := vec.ApplyCZ(a, b); err != nil {
					t.Fatal(err)
				}
				goCZ(ref.amps, 1<<uint(a)|1<<uint(b))
				if i, ok := sameBits(vec, ref); !ok {
					t.Fatalf("n=%d CZ(%d,%d): amplitude %d is %v, the Go walk wrote %v", n, a, b, i, vec.amps[i], ref.amps[i])
				}
				if small {
					vectorCZ(kernel.amps, min(a, b), max(a, b))
					if i, ok := sameBits(kernel, ref); !ok {
						t.Fatalf("n=%d vectorCZ(%d,%d): amplitude %d is %v, the Go walk wrote %v", n, a, b, i, kernel.amps[i], ref.amps[i])
					}
				}
			}
		}
	}
}

// TestVectorSumsMatchGoSums is the summed kernels' exactness gate: on
// registers of 1 to 16 qubits the vector passes read the Go passes' bits —
// QubitDensity on every qubit, and the sampler's plain and weighted
// probability passes, every probability and the total.
func TestVectorSumsMatchGoSums(t *testing.T) {
	if !hostVectorRows {
		t.Skip("no AVX2 on this host: the Go sums are the only sums")
	}
	defer setVectorRows(true)
	rng := rand.New(rand.NewSource(49))
	for n := 1; n <= 16; n++ {
		s := randomState(n, rng)
		for q := 0; q < n; q++ {
			setVectorRows(true)
			vec, err := s.QubitDensity(q)
			if err != nil {
				t.Fatal(err)
			}
			setVectorRows(false)
			ref, err := s.QubitDensity(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloats([]float64{vec.P0, vec.P1, real(vec.C), imag(vec.C)}, []float64{ref.P0, ref.P1, real(ref.C), imag(ref.C)}) {
				t.Fatalf("n=%d QubitDensity(%d): vector %+v, Go %+v", n, q, vec, ref)
			}
		}
		var w OutcomeWeights
		for q := 0; q < n; q++ {
			if q == 0 || rng.Intn(3) > 0 {
				w.SetDiagonal(q, Matrix2{{complex(rng.NormFloat64(), rng.NormFloat64()), 0}, {0, complex(rng.NormFloat64(), 0)}})
			}
		}
		for _, pass := range []struct {
			name string
			w    *OutcomeWeights
		}{{"plain", nil}, {"weighted", &w}} {
			setVectorRows(true)
			probs, total := s.weightedProbs(pass.w)
			vec := append([]float64(nil), probs...)
			setVectorRows(false)
			ref, refTotal := s.weightedProbs(pass.w)
			if !sameFloats(vec, ref) || !sameFloats([]float64{total}, []float64{refTotal}) {
				t.Fatalf("n=%d %s probabilities: vector total %v, Go total %v (or a probability differs)", n, pass.name, total, refTotal)
			}
		}
	}
}

// sameFloats reports whether a and b hold the same bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b hold the same bits in every amplitude,
// and the first index where they do not.
func sameBits(a, b *State) (int, bool) {
	for i, x := range a.amps {
		y := b.amps[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return i, false
		}
	}
	return 0, true
}
