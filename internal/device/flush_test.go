package device

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/quantum"
)

// TestPhaseSplitFactorsOperators is the exactness of a flush's phase split
// on the operators a pending product is made of — products of PRX, RZ and
// the epoch's first Kraus operators, PRX(π), whose diagonal is zero, and
// diagonal entries too small to square:
// D is a unitary diagonal, R's diagonal is real and non-negative, D·R = M to
// 1e-12, and applying R and then D to random states matches applying M. A
// gate pushed onto a phase diagonal gives what Mul2 gives.
func TestPhaseSplitFactorsOperators(t *testing.T) {
	ep := New20Q(7).Epoch()
	var k0s []quantum.Matrix2
	for _, ch := range ep.prx {
		k0s = append(k0s, ch.Kraus[0])
	}
	for _, pair := range ep.cz {
		for _, ch := range pair {
			k0s = append(k0s, ch.Kraus[0])
		}
	}
	rng := rand.New(rand.NewSource(47))
	angle := func() float64 { return 2 * math.Pi * rng.Float64() }
	ops := []quantum.Matrix2{
		quantum.PRX(math.Pi, angle()),
		{{0, complex(0, -1)}, {complex(0, -1), 0}}, // PRX(π, 0) with its diagonal exactly zero
		quantum.Mul2(k0s[0], quantum.Matrix2{{0, 1}, {1, 0}}),
		quantum.Mul2(quantum.RZ(angle()), quantum.PRX(math.Pi, 0)),
		{{complex(3e-160, -4e-160), 0.5}, {0.5, complex(-1e-170, 2e-171)}}, // squares underflow
	}
	for i := 0; i < 200; i++ {
		m := quantum.I2
		for f := 0; f < 1+rng.Intn(6); f++ {
			var g quantum.Matrix2
			switch rng.Intn(3) {
			case 0:
				g = quantum.PRX(angle(), angle())
			case 1:
				g = quantum.RZ(angle())
			default:
				g = k0s[rng.Intn(len(k0s))]
			}
			m = quantum.Mul2(g, m)
		}
		ops = append(ops, m)
	}
	for i, m := range ops {
		d, r, phased := phaseSplit(m)
		if phased == (d == quantum.I2) {
			t.Fatalf("op %d: phased = %v with D = %v", i, phased, d)
		}
		if d[0][1] != 0 || d[1][0] != 0 || math.Abs(cmplx.Abs(d[0][0])-1) > 1e-15 || math.Abs(cmplx.Abs(d[1][1])-1) > 1e-15 {
			t.Fatalf("op %d: D = %v is not a unitary diagonal", i, d)
		}
		if imag(r[0][0]) != 0 || imag(r[1][1]) != 0 || real(r[0][0]) < 0 || real(r[1][1]) < 0 {
			t.Fatalf("op %d: R's diagonal %v, %v is not real and non-negative", i, r[0][0], r[1][1])
		}
		if e := maxEntryDiff(quantum.Mul2(d, r), m); e > 1e-12 {
			t.Errorf("op %d: D·R differs from M by %g", i, e)
		}
		if phased {
			var p pending
			p.reset()
			p.m[0], p.mask, p.phase = d, 1, 1
			g := quantum.PRX(angle(), angle())
			p.push(0, g)
			if e := maxEntryDiff(p.m[0], quantum.Mul2(g, d)); e != 0 || p.phase != 0 {
				t.Errorf("op %d: a gate pushed onto D differs from Mul2 by %g (phase mask %b)", i, e, p.phase)
			}
		}
		for _, n := range []int{3, 6} {
			q := rng.Intn(n)
			split, whole := quantum.MustNewState(n), quantum.MustNewState(n)
			for k := 0; k < n; k++ {
				g := quantum.PRX(angle(), angle())
				_ = split.Apply1Q(k, g)
				_ = whole.Apply1Q(k, g)
			}
			_ = split.Apply1Q(q, r)
			_ = split.Apply1Q(q, d)
			_ = whole.Apply1Q(q, m)
			for j := 0; j < split.Dim(); j++ {
				if e := cmplx.Abs(split.Amplitude(j) - whole.Amplitude(j)); e > 1e-12 {
					t.Fatalf("op %d, %d qubits, qubit %d: amplitude %d differs by %g", i, n, q, j, e)
				}
			}
		}
	}
}

func maxEntryDiff(a, b quantum.Matrix2) float64 {
	worst := 0.0
	for i := range a {
		for j := range a[i] {
			worst = math.Max(worst, cmplx.Abs(a[i][j]-b[i][j]))
		}
	}
	return worst
}

// TestFlushWritesOnlyWhatDoesNotCommute is the work gate of the phase split
// and the leaf fold, on the pinned wide job (12 qubits, depth 4, 50 shots
// at the pinned seed), down the tree and down the replay fallback: no flush
// writes a matrix with a non-real diagonal — phases stay pending through
// CZs and density reads — and no leaf applies a diagonal operator, which
// weights the sampler's probability pass instead; and the job still reads
// the recorded histogram over the recorded leaves. The pass counts are
// logged by kind.
func TestFlushWritesOnlyWhatDoesNotCommute(t *testing.T) {
	for _, budget := range []int{defaultBranchStateBudget, 1} {
		cj := pinnedWideJob(t)
		cj.stateBudget = budget
		var (
			counts map[int]int
			stats  runStats
			err    error
		)
		c := countPasses(func() {
			counts, stats, err = cj.runBranchTree(50, rand.New(rand.NewSource(pinnedRNGSeed)))
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := passKind(0); k < numPassKinds; k++ {
			t.Logf("budget %d: %-16s %3d flush passes, %3d leaf passes", budget, k, c.flush[k], c.leaf[k])
		}
		if n := c.flush[passComplexDiagonal] + c.flush[passDense]; n != 0 {
			t.Errorf("budget %d: %d flush passes wrote a matrix with a non-real diagonal", budget, n)
		}
		if n := c.leaf[passRealDiagonal] + c.leaf[passComplexDiagonal]; n != 0 {
			t.Errorf("budget %d: %d leaf passes applied a diagonal operator", budget, n)
		}
		if !reflect.DeepEqual(counts, pinnedWide) || stats.leaves != pinnedWideLeaves {
			t.Errorf("budget %d: counts %v over %d leaves, want the recorded %v over %d", budget, counts, stats.leaves, pinnedWide, pinnedWideLeaves)
		}
	}
}
