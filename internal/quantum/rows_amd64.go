//go:build amd64 && gc

package quantum

// vectorRows says whether apply1QPairs runs its rows on the vector unit. It
// is chosen once, here, from what the CPU reports; the tests flip it to
// compare the two row kernels (the device package's tests by its link name,
// internal/device/export_test.go).
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

// vectorPairs is apply1QPairs on the vector unit. The rows of whole blocks
// run in one kernel call; a chunk that starts or ends inside a block runs
// its partial blocks in a call each; an odd amplitude left at the end of a
// partial block, or an odd pair of qubit 0, takes the Go row.
func vectorPairs(amps []complex128, bit, lo, hi int, m *Matrix2, shape rowShape) {
	if bit == 1 {
		if n := (hi - lo) / 2; n > 0 {
			rowsAVX2(&amps[2*lo], 1, n, 2, m, shape)
		}
		if (hi-lo)&1 != 0 {
			goPairs(amps, bit, hi-1, hi, m, shape)
		}
		return
	}
	if off := lo & (bit - 1); off != 0 {
		end := min(lo-off+bit, hi)
		partialBlock(amps, bit, lo, end, m, shape)
		lo = end
	}
	if blocks := (hi - lo) / bit; blocks > 0 {
		rowsAVX2(&amps[lo<<1], bit, blocks, bit, m, shape)
		lo += blocks * bit
	}
	if lo < hi {
		partialBlock(amps, bit, lo, hi, m, shape)
	}
}

// partialBlock applies m to the pairs lo..hi-1, which lie in one block.
func partialBlock(amps []complex128, bit, lo, hi int, m *Matrix2, shape rowShape) {
	off := lo & (bit - 1)
	if even := (hi - lo) &^ 1; even > 0 {
		rowsAVX2(&amps[(lo-off)<<1|off], bit, 1, even, m, shape)
	}
	if (hi-lo)&1 != 0 {
		goPairs(amps, bit, hi-1, hi, m, shape)
	}
}
