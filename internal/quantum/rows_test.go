package quantum

import (
	"math"
	"math/rand"
	"testing"
)

// TestVectorRowsMatchGoRows is the vector rows' exactness gate: on every
// amplitude they write the Go rows' bits, for registers of 1, 2, 5, 12, 14
// and 16 qubits, every qubit, the three row shapes plus a complex diagonal
// (the dense row), over the whole pass and over pair ranges that start and
// end inside a block, as a fanned-out chunk does. Apply1Q on the 14- and
// 16-qubit registers runs the fanned-out pass itself.
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
		half := 1 << uint(n-1)
		for q := 0; q < n; q++ {
			bit := 1 << uint(q)
			for _, sh := range shapes {
				m := sh.m()
				s := randomState(n, rng)
				// The whole pass; past qubit 0 a range that starts and ends one
				// pair inside a block, an odd run at each end, and one inside a
				// single block; then ranges from and to random pairs.
				ranges := [][2]int{{0, half}}
				if bit > 1 && half > bit {
					ranges = append(ranges, [2]int{1, half - 1})
				}
				if bit > 2 && half > bit {
					ranges = append(ranges, [2]int{bit + 1, 2*bit - 1})
				}
				for i := 0; i < 4 && half > 1; i++ {
					lo := rng.Intn(half)
					ranges = append(ranges, [2]int{lo, lo + 1 + rng.Intn(half-lo)})
				}
				for _, r := range ranges {
					vec, ref := s.Clone(), s.Clone()
					setVectorRows(true)
					apply1QPairs(vec.amps, bit, r[0], r[1], &m)
					setVectorRows(false)
					apply1QPairs(ref.amps, bit, r[0], r[1], &m)
					if i, ok := sameBits(vec, ref); !ok {
						t.Fatalf("n=%d q=%d %s pairs [%d, %d): amplitude %d is %v, the Go row wrote %v",
							n, q, sh.name, r[0], r[1], i, vec.amps[i], ref.amps[i])
					}
				}
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
