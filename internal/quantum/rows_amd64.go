//go:build amd64 && gc

package quantum

// vectorRows says whether the engine's passes — apply1QPairs's rows, the CZ
// sign flip, the density reduction and the sampler's probability pass — run
// on the vector unit. It is chosen once, here, from what the CPU reports;
// the tests flip it to compare the vector and the Go kernels (the device
// package's tests by its link name, internal/device/export_test.go).
var vectorRows = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// across context switches: CPUID leaf 1 ECX bit 27 (OSXSAVE) and bit 28
// (AVX), leaf 7 EBX bit 5 (AVX2), and XCR0 bits 1 and 2 (SSE and AVX state).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// rowsAVX2 applies m, of the given shape, to the pairs of the qubit whose
// index bit is bit in a number of consecutive blocks: in each, run
// amplitudes from z (run even, ≥ 2) and their partners bit amplitudes on;
// the next block starts 2·bit amplitudes on. For bit 1 it instead applies m
// to 2·blocks adjacent pairs from z, and ignores run.
//
//go:noescape
func rowsAVX2(z *complex128, bit, blocks, run int, m *Matrix2, shape rowShape)

// vectorPairs is apply1QPairs on the vector unit: the rows of every block
// run in one kernel call. The one pair of a 1-qubit register takes the Go
// row.
func vectorPairs(amps []complex128, bit int, m *Matrix2, shape rowShape) {
	half := len(amps) / 2
	switch {
	case half == 1:
		goPairs(amps, bit, m, shape)
	case bit == 1:
		rowsAVX2(&amps[0], 1, half/2, 2, m, shape)
	default:
		rowsAVX2(&amps[0], bit, half/bit, bit, m, shape)
	}
}

// czAVX2 flips the sign bits of the amplitudes of blocks blocks, each stride
// amplitudes after the previous one: in each, runs runs of run amplitudes
// (run even) from z, each gap amplitudes after the previous one. With odd
// set it flips only the odd amplitude of each register, through a
// [0, 0, sign, sign] mask.
//
//go:noescape
func czAVX2(z *complex128, blocks, stride, runs, gap, run int, odd bool)

// vectorCZ is ApplyCZ's sign flip on the vector unit for qubits lo < hi, in
// one kernel call. The amplitudes with both bits set lie in runs of 2^lo,
// 2^(lo+1) apart, in the half of each 2^(hi+1) block that has bit hi set;
// for lo = 0 they are the odd amplitudes of that half, one in each register.
// A block that holds one run is walked as one row of runs.
func vectorCZ(amps []complex128, lo, hi int) {
	lb, hb := 1<<uint(lo), 1<<uint(hi)
	blocks, runs := len(amps)/(2*hb), hb/(2*lb)
	z, run, odd := &amps[hb|lb], lb, false
	if lo == 0 {
		z, runs, run, odd = &amps[hb], 1, hb, true
	}
	if runs == 1 {
		czAVX2(z, 1, 0, blocks, 2*hb, run, odd)
		return
	}
	czAVX2(z, blocks, 2*hb, runs, 2*lb, run, odd)
}

// densityAVX2 is QubitDensity's pass over the n amplitudes from z (n ≥ 8)
// for the qubit whose index bit is bit, in goDensity's lane order: it writes
// P0, P1, Re C and Im C to d.
//
//go:noescape
func densityAVX2(z *complex128, n, bit int, d *[4]float64)

// vectorDensity is goDensity on the vector unit. A register of fewer than
// four pairs, which fills no vector of lanes, takes the Go pass.
func vectorDensity(amps []complex128, bit int, d *[4]float64) {
	if len(amps) < 8 {
		goDensity(amps, bit, d)
		return
	}
	densityAVX2(&amps[0], len(amps), bit, d)
}

// probsAVX2 writes |z[i]|² to probs[i] for the n amplitudes from z (n a
// multiple of 4) and returns their sum in goProbs's lane order.
//
//go:noescape
func probsAVX2(z *complex128, probs *float64, n int) float64

// weightedAVX2 writes |z[i]|²·lo[l]·hi[h], i = h·nlo+l, to probs[i] for the
// nhi rows of nlo amplitudes from z (nlo a multiple of 4) and returns their
// sum in goWeighted's lane order.
//
//go:noescape
func weightedAVX2(z *complex128, probs, lo *float64, nlo int, hi *float64, nhi int) float64

// vectorProbs is goProbs on the vector unit; a one-qubit register takes the
// Go pass.
func vectorProbs(amps []complex128, probs []float64) float64 {
	if len(amps) < 4 {
		return goProbs(amps, probs)
	}
	return probsAVX2(&amps[0], &probs[0], len(amps))
}

// vectorWeighted is goWeighted on the vector unit; rows shorter than four
// outcomes (registers under four qubits) take the Go pass.
func vectorWeighted(amps []complex128, probs, lo, hi []float64) float64 {
	if len(lo) < 4 {
		return goWeighted(amps, probs, lo, hi)
	}
	return weightedAVX2(&amps[0], &probs[0], &lo[0], len(lo), &hi[0], len(hi))
}
