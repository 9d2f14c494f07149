package quantum

import (
	"math/rand"
	"testing"
)

// fusedFlushFlushCZ is the kernel ROADMAP item 5(d) proposed: the two
// pending single-qubit operators a CZ flushes, and the CZ, in one pass over
// the state — each group of four amplitudes (qubits a, b = 00, 01, 10, 11)
// is loaded once, takes ma on its two a-pairs, mb on its two b-pairs and the
// sign of its 11 entry, in the order and with the expressions the three
// separate passes use, so the result is bit-identical.
func fusedFlushFlushCZ(amps []complex128, a, b int, ma, mb *Matrix2) {
	// l is the operator on the lower qubit, h on the higher; lowFirst says
	// which of the two the separate passes apply first (they commute, but
	// not bit for bit).
	lowFirst, l, h := a < b, ma, mb
	if !lowFirst {
		a, b, l, h = b, a, mb, ma
	}
	ba, bb := 1<<uint(a), 1<<uint(b)
	l00, l01, l10, l11 := l[0][0], l[0][1], l[1][0], l[1][1]
	h00, h01, h10, h11 := h[0][0], h[0][1], h[1][0], h[1][1]
	for hi := 0; hi < len(amps); hi += bb << 1 {
		for mid := hi; mid < hi+bb; mid += ba << 1 {
			lo0 := amps[mid : mid+ba]
			lo1 := amps[mid+ba:][:ba]
			hi0 := amps[mid+bb:][:ba]
			hi1 := amps[mid+bb+ba:][:ba]
			if lowFirst {
				for i, x00 := range lo0 {
					x01, x10, x11 := lo1[i], hi0[i], hi1[i]
					x00, x01 = l00*x00+l01*x01, l10*x00+l11*x01
					x10, x11 = l00*x10+l01*x11, l10*x10+l11*x11
					x00, x10 = h00*x00+h01*x10, h10*x00+h11*x10
					x01, x11 = h00*x01+h01*x11, h10*x01+h11*x11
					lo0[i], lo1[i], hi0[i], hi1[i] = x00, x01, x10, -x11
				}
				continue
			}
			for i, x00 := range lo0 {
				x01, x10, x11 := lo1[i], hi0[i], hi1[i]
				x00, x10 = h00*x00+h01*x10, h10*x00+h11*x10
				x01, x11 = h00*x01+h01*x11, h10*x01+h11*x11
				x00, x01 = l00*x00+l01*x01, l10*x00+l11*x01
				x10, x11 = l00*x10+l01*x11, l10*x10+l11*x11
				lo0[i], lo1[i], hi0[i], hi1[i] = x00, x01, x10, -x11
			}
		}
	}
}

func flushFlushCZFixture(tb testing.TB) (*State, Matrix2, Matrix2) {
	st, err := NewState(12)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 12; q++ {
		if err := st.Apply1Q(q, PRX(rng.Float64()*3, rng.Float64()*3)); err != nil {
			tb.Fatal(err)
		}
	}
	return st, Mul2(RZ(0.37), PRX(1.1, 0.4)), Mul2(RZ(-1.2), PRX(0.6, 2.2))
}

func TestFusedFlushFlushCZBitIdentical(t *testing.T) {
	for _, qs := range [][2]int{{4, 5}, {5, 4}, {0, 11}, {2, 7}, {9, 3}} {
		sep, ma, mb := flushFlushCZFixture(t)
		fused, _, _ := flushFlushCZFixture(t)
		sep.Apply1Q(qs[0], ma)
		sep.Apply1Q(qs[1], mb)
		sep.ApplyCZ(qs[0], qs[1])
		fusedFlushFlushCZ(fused.amps, qs[0], qs[1], &ma, &mb)
		for i := range sep.amps {
			if sep.amps[i] != fused.amps[i] {
				t.Fatalf("qubits %v: amplitude %d is %v fused, %v from the three passes", qs, i, fused.amps[i], sep.amps[i])
			}
		}
	}
}

// BenchmarkFlushFlushCZ measures what fusing would buy at the wide-circuit
// width: on the 12-qubit state (64 KB, cache-resident) the pass is bound by
// its 28 flops per amplitude pair, not by traffic, so one pass doing the
// work of three costs what the three do (EXPERIMENTS.md E25).
func BenchmarkFlushFlushCZ(b *testing.B) {
	st, ma, mb := flushFlushCZFixture(b)
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.Apply1Q(5, ma)
			st.Apply1Q(6, mb)
			st.ApplyCZ(5, 6)
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fusedFlushFlushCZ(st.amps, 5, 6, &ma, &mb)
		}
	})
}
