package quantum

import (
	"math"
	"math/rand"
	"testing"
)

// TestRemainderPathMatchesDense pins the real-diagonal-remainder path of the
// single-qubit kernel — a real diagonal with complex off-diagonal entries,
// what a pending flush writes once it has factored out the phases — to the
// dense pair formula for the same matrix, with exact equality (== does not
// tell a zero's sign), on every qubit of a serial 6-qubit register and of a
// 14-qubit one, whose pass fans out.
func TestRemainderPathMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{6, 14} {
		for q := 0; q < n; q++ {
			r := Matrix2{
				{complex(rng.Float64(), 0), complex(rng.NormFloat64(), rng.NormFloat64())},
				{complex(rng.NormFloat64(), rng.NormFloat64()), complex(rng.Float64(), 0)},
			}
			if q == 0 {
				r[1][1] = 0 // the remainder of a zero diagonal entry
			}
			s := randomState(n, rng)
			want := s.Clone()
			if err := s.Apply1Q(q, r); err != nil {
				t.Fatal(err)
			}
			bit := 1 << uint(q)
			for i0, a0 := range want.amps {
				if i0&bit != 0 {
					continue
				}
				a1 := want.amps[i0|bit]
				want.amps[i0] = r[0][0]*a0 + r[0][1]*a1
				want.amps[i0|bit] = r[1][0]*a0 + r[1][1]*a1
			}
			if d := maxAmpDiff(s, want); d != 0 {
				t.Errorf("n=%d q=%d: remainder path differs from the dense formula by %g", n, q, d)
			}
		}
	}
}

// TestLeafWeightsMatchAppliedDiagonals is the leaf fold's exactness: the
// probability vector the sampler fills under OutcomeWeights equals, to
// 1e-12, |amp|² of the state with the diagonal operators applied — for
// registers of 1, 5, 12 and 13 qubits (odd n splits the register unevenly
// between the two weight tables), every qubit weighted or a random subset.
// Under one seed each sampling path (single draw, cumulative, alias) then
// draws what it draws from the applied state.
func TestLeafWeightsMatchAppliedDiagonals(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{1, 5, 12, 13} {
		for trial := 0; trial < 4; trial++ {
			s := randomState(n, rng)
			applied := s.Clone()
			var w OutcomeWeights
			for q := 0; q < n; q++ {
				if trial > 0 && rng.Intn(2) == 0 {
					continue
				}
				d := Matrix2{{complex(rng.NormFloat64(), rng.NormFloat64()), 0}, {0, complex(rng.NormFloat64(), rng.NormFloat64())}}
				if trial == 3 && q == 0 {
					d[0][0] = 0 // a zero weight
				}
				w.SetDiagonal(q, d)
				if err := applied.Apply1Q(q, d); err != nil {
					t.Fatal(err)
				}
			}
			want := applied.ProbabilitiesInto(nil)
			got, total := s.weightedProbs(&w)
			var lanes [4]float64 // the sampler's order: outcome i into lane i mod 4
			for i, p := range want {
				lanes[i&3] += p
				if math.Abs(got[i]-p) > 1e-12 {
					t.Errorf("n=%d trial %d outcome %d: weighted probability %.17g, applied %.17g", n, trial, i, got[i], p)
				}
			}
			if sum := (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]); math.Abs(total-sum) > 1e-12 {
				t.Errorf("n=%d trial %d: weighted total %.17g, applied %.17g", n, trial, total, sum)
			}
			for _, shots := range []int{1, aliasMinShots - 1, 4 * aliasMinShots} {
				seed := rng.Int63()
				gotS := s.SampleWeightedInto(nil, shots, rand.New(rand.NewSource(seed)), &w)
				wantS := applied.SampleBitstringsInto(nil, shots, rand.New(rand.NewSource(seed)))
				for k := range wantS {
					if gotS[k] != wantS[k] {
						t.Errorf("n=%d trial %d, %d shots: draw %d is %d weighted, %d applied", n, trial, shots, k, gotS[k], wantS[k])
						break
					}
				}
			}
		}
	}
}
