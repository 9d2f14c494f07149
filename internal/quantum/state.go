// Package quantum implements a dense state-vector simulator for up to ~24
// qubits. It is the computational stand-in for the paper's 20-qubit
// superconducting QPU and for the "digital twin" emulator that LRZ used for
// user onboarding (§4): circuits go in, measured bitstrings come out, and a
// noise layer (quantum-trajectory Kraus channels plus readout confusion)
// reproduces the imperfections that calibration exists to manage.
//
// Every pass runs inline, at every size, on the goroutine that owns the
// state: the package starts no goroutines. How many cores a job takes is
// the caller's decision (the device engine's helper goroutine runs a wide
// job's forked trajectories on a second core), not the kernels'.
//
// On a CPU with AVX2 the engine's passes run on the vector unit, two
// amplitudes per register: every one-qubit pass (Apply1Q, and so every gate,
// Kraus operator and pending-operator flush the engine writes), the ApplyCZ
// sign flip (on states of vectorCZMin amplitudes or more), the QubitDensity
// reduction and the sampler's probability pass. Each lane does the Go
// kernel's operations in its order, without FMA, so the state's bits, and
// every count sampled from it, are the same on any host. The sums add in
// one fixed lane order, on both paths: term k into lane k mod 4, the lanes
// combined as (s0+s1)+(s2+s3). The choice is made once, at init, from
// CPUID; RowKernel names it. The Go kernels, and the O(1) arithmetic the
// engine's branch weights go through (Mul2, QubitDensity.After and
// Weight), round every product on its own (float64(…)), so a port that
// fuses multiply-adds, as arm64 does, computes their bits as amd64 does;
// other functions of the package still fuse there.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// MaxQubits bounds state allocation: 2^26 amplitudes = 1 GiB of complex128.
const MaxQubits = 26

// State is a pure quantum state of n qubits stored as 2^n complex amplitudes.
// Qubit 0 is the least significant bit of the basis-state index.
type State struct {
	n    int
	amps []complex128
	// probScratch is a lazily-allocated 2^n buffer the sampler fills with
	// the outcome distribution (and turns cumulative below the alias
	// crossover), so repeated sampling of a long-lived (pooled) state
	// allocates nothing.
	probScratch []float64
	// weightScratch holds the sampler's two half-register weight tables,
	// 2^⌊n/2⌋ + 2^⌈n/2⌉ floats, lazily allocated like probScratch.
	weightScratch []float64
	// aliasScratch is the reusable Walker sampler of the bulk-sampling path;
	// like probScratch it amortizes to zero allocations on pooled states.
	aliasScratch AliasTable
}

// NewState returns the n-qubit |00...0> state.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("quantum: qubit count %d outside [1, %d]", n, MaxQubits)
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s, nil
}

// MustNewState is NewState for statically-valid sizes; it panics on error.
func MustNewState(n int) *State {
	s, err := NewState(n)
	if err != nil {
		panic(err)
	}
	return s
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// Dim returns the Hilbert-space dimension 2^n.
func (s *State) Dim() int { return len(s.amps) }

// Amplitude returns the amplitude of basis state idx.
func (s *State) Amplitude(idx int) complex128 { return s.amps[idx] }

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	copy(c.amps, s.amps)
	return c
}

// Set overwrites s with a copy of src's amplitudes. It is the
// checkpoint-restore primitive of the shot-branching engine's per-shot
// replay fallback: the replay scratch state is rewound to the fork point
// without touching the pool.
func (s *State) Set(src *State) error {
	if s.n != src.n {
		return fmt.Errorf("quantum: cannot set %d-qubit state from %d-qubit source", s.n, src.n)
	}
	copy(s.amps, src.amps)
	return nil
}

// Reset returns the state to |00...0>.
func (s *State) Reset() {
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[0] = 1
}

// Norm returns the 2-norm of the state (1 for a normalized state).
func (s *State) Norm() float64 {
	sum := 0.0
	for _, a := range s.amps {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// Normalize rescales the state to unit norm. It returns an error if the
// state has (numerically) zero norm.
func (s *State) Normalize() error {
	n := s.Norm()
	if n < 1e-300 {
		return fmt.Errorf("quantum: cannot normalize zero state")
	}
	inv := complex(1/n, 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
	return nil
}

// InnerProduct returns <s|other>.
func (s *State) InnerProduct(other *State) (complex128, error) {
	if s.n != other.n {
		return 0, fmt.Errorf("quantum: inner product between %d- and %d-qubit states", s.n, other.n)
	}
	var sum complex128
	for i := range s.amps {
		sum += cmplx.Conj(s.amps[i]) * other.amps[i]
	}
	return sum, nil
}

// Fidelity returns |<s|other>|^2.
func (s *State) Fidelity(other *State) (float64, error) {
	ip, err := s.InnerProduct(other)
	if err != nil {
		return 0, err
	}
	m := cmplx.Abs(ip)
	return m * m, nil
}

// Probability returns |amp|^2 of basis state idx.
func (s *State) Probability(idx int) float64 {
	a := s.amps[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// ProbabilitiesInto fills dst with the full probability vector and returns
// it, reusing dst's backing array when its capacity suffices (allocating
// otherwise), so repeated sampling stops allocating 2^n floats per call.
func (s *State) ProbabilitiesInto(dst []float64) []float64 {
	if cap(dst) < len(s.amps) {
		dst = make([]float64, len(s.amps))
	}
	dst = dst[:len(s.amps)]
	for i, a := range s.amps {
		dst[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return dst
}

// checkQubit validates a qubit index.
func (s *State) checkQubit(q int) error {
	if q < 0 || q >= s.n {
		return fmt.Errorf("quantum: qubit %d out of range [0, %d)", q, s.n)
	}
	return nil
}

// Apply1Q applies a single-qubit operator m (row-major [ [m00 m01], [m10 m11] ])
// to qubit q. The operator need not be unitary: the trajectory engine passes
// renormalised Kraus products through here.
func (s *State) Apply1Q(q int, m Matrix2) error {
	if err := s.checkQubit(q); err != nil {
		return err
	}
	apply1QPairs(s.amps, 1<<uint(q), &m)
	return nil
}

// apply1QPairs applies m to every amplitude pair of the qubit whose index
// bit is bit; pair p joins amplitude i0 — p with a zero inserted at the
// qubit's position — and i0|bit. The pairs lie in blocks: bit consecutive low
// amplitudes, then their bit partners.
//
// The matrix's shape picks one of three rows. A real diagonal m — the
// dominant Kraus operator that follows a CZ — takes two real multiplies per
// amplitude instead of the dense row. A real diagonal with off-diagonal
// entries — the remainder a pending flush writes once it has factored the
// phases out of its operator (device/branchtree.go) — takes 20 flops per pair
// instead of 28: the diagonal products are real by complex. Everything else
// takes the dense row. On every amplitude each row computes what
// m00·a0 + m01·a1 computes, in the same order, up to the sign of a zero.
//
// On a CPU with AVX2 the rows run on the vector unit, two amplitudes per
// register (vectorPairs, rows_amd64.s), every lane doing the Go row's
// operations in its order without FMA: the two kernels are bit-identical,
// so no count depends on the host. Elsewhere the Go rows, goPairs, run.
func apply1QPairs(amps []complex128, bit int, m *Matrix2) {
	shape := shapeDense
	if imag(m[0][0]) == 0 && imag(m[1][1]) == 0 {
		shape = shapeRemainder
		if m[0][1] == 0 && m[1][0] == 0 {
			shape = shapeRealDiagonal
		}
	}
	if vectorRows {
		vectorPairs(amps, bit, m, shape)
		return
	}
	goPairs(amps, bit, m, shape)
}

// RowKernel names the kernel one-qubit passes run on: "avx2" on a CPU with
// AVX2, "go" elsewhere.
func RowKernel() string {
	if vectorRows {
		return "avx2"
	}
	return "go"
}

// rowShape is the shape of a one-qubit matrix, which picks its row. The
// values are the vector kernel's too.
type rowShape int

const (
	shapeRealDiagonal rowShape = iota // real diagonal: d·a per amplitude
	shapeRemainder                    // real diagonal, complex off-diagonal
	shapeDense                        // anything else
)

// goPairs is apply1QPairs's Go rows. Past the two lowest qubits the block
// loop walks two equally long slices and does no index arithmetic or bounds
// check per amplitude.
func goPairs(amps []complex128, bit int, m *Matrix2, shape rowShape) {
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	d0, d1 := real(m00), real(m11)
	r01, i01, r10, i10 := real(m01), imag(m01), real(m10), imag(m10)
	if bit < 4 {
		// Blocks of one or two amplitudes cost more to set up than to walk:
		// the two lowest qubits index each pair instead.
		for p := 0; p < len(amps)/2; p++ {
			i0 := (p&^(bit-1))<<1 | p&(bit-1)
			a0, a1 := amps[i0], amps[i0|bit]
			switch shape {
			case shapeRealDiagonal:
				amps[i0] = complex(d0*real(a0), d0*imag(a0))
				amps[i0|bit] = complex(d1*real(a1), d1*imag(a1))
			case shapeRemainder:
				amps[i0], amps[i0|bit] = remainderPair(a0, a1, d0, d1, r01, i01, r10, i10)
			default:
				amps[i0] = cmul(m00, a0) + cmul(m01, a1)
				amps[i0|bit] = cmul(m10, a0) + cmul(m11, a1)
			}
		}
		return
	}
	for i0 := 0; i0 < len(amps); i0 += 2 * bit {
		zeros := amps[i0 : i0+bit]
		ones := amps[i0+bit:][:bit]
		switch shape {
		case shapeRealDiagonal:
			for i, a := range zeros {
				zeros[i] = complex(d0*real(a), d0*imag(a))
			}
			for i, a := range ones {
				ones[i] = complex(d1*real(a), d1*imag(a))
			}
		case shapeRemainder:
			for i, a0 := range zeros {
				zeros[i], ones[i] = remainderPair(a0, ones[i], d0, d1, r01, i01, r10, i10)
			}
		default:
			for i, a0 := range zeros {
				a1 := ones[i]
				zeros[i] = cmul(m00, a0) + cmul(m01, a1)
				ones[i] = cmul(m10, a0) + cmul(m11, a1)
			}
		}
	}
}

// remainderPair is the remainder row on one pair: the real diagonal d0, d1
// times a0, a1, plus the complex off-diagonal r01+i·i01, r10+i·i10 — 20
// flops, each product rounded on its own so none fuses into a multiply-add.
func remainderPair(a0, a1 complex128, d0, d1, r01, i01, r10, i10 float64) (complex128, complex128) {
	x0, y0, x1, y1 := real(a0), imag(a0), real(a1), imag(a1)
	return complex(float64(d0*x0)+(float64(r01*x1)-float64(i01*y1)), float64(d0*y0)+(float64(r01*y1)+float64(i01*x1))),
		complex((float64(r10*x0)-float64(i10*y0))+float64(d1*x1), (float64(r10*y0)+float64(i10*x0))+float64(d1*y1))
}

// Apply2Q applies a two-qubit unitary m (4x4, row-major, basis order
// |q2 q1> = |00>,|01>,|10>,|11> with q1 the low bit) to qubits q1 and q2.
func (s *State) Apply2Q(q1, q2 int, m Matrix4) error {
	if err := s.checkQubit(q1); err != nil {
		return err
	}
	if err := s.checkQubit(q2); err != nil {
		return err
	}
	if q1 == q2 {
		return fmt.Errorf("quantum: two-qubit gate needs distinct qubits, got %d twice", q1)
	}
	b1 := 1 << uint(q1)
	b2 := 1 << uint(q2)
	lowBit, highBit := b1, b2
	if lowBit > highBit {
		lowBit, highBit = highBit, lowBit
	}
	apply2Q(s.amps, &m, b1, b2, lowBit, highBit)
	return nil
}

// apply2Q is Apply2Q's kernel: m applied to each of the len(amps)/4
// quadruples of amplitudes that differ only in the bits b1 and b2. Each
// product goes through cmul, so no port fuses one into a multiply-add; the
// bits are those m[r][0]*a00 + … + m[r][3]*a11 computes on amd64.
func apply2Q(amps []complex128, m *Matrix4, b1, b2, lowBit, highBit int) {
	for k := 0; k < len(amps)/4; k++ {
		i := k
		low := i & (lowBit - 1)
		i = (i &^ (lowBit - 1)) << 1
		mid := i & (highBit - 1)
		i = (i &^ (highBit - 1)) << 1
		base := i | mid | low

		i00 := base
		i01 := base | b1
		i10 := base | b2
		i11 := base | b1 | b2
		a00, a01, a10, a11 := amps[i00], amps[i01], amps[i10], amps[i11]
		amps[i00] = cmul(m[0][0], a00) + cmul(m[0][1], a01) + cmul(m[0][2], a10) + cmul(m[0][3], a11)
		amps[i01] = cmul(m[1][0], a00) + cmul(m[1][1], a01) + cmul(m[1][2], a10) + cmul(m[1][3], a11)
		amps[i10] = cmul(m[2][0], a00) + cmul(m[2][1], a01) + cmul(m[2][2], a10) + cmul(m[2][3], a11)
		amps[i11] = cmul(m[3][0], a00) + cmul(m[3][1], a01) + cmul(m[3][2], a10) + cmul(m[3][3], a11)
	}
}

// ApplyCZ applies the controlled-Z gate to qubits a and b by negating the
// quarter of amplitudes with both bits set — equivalent to
// Apply2Q(a, b, CZ) without the sixteen complex multiplies per four
// amplitudes. On a CPU with AVX2 a state of
// vectorCZMin amplitudes or more has the sign bits of whole runs flipped on
// the vector unit (vectorCZ, rows_amd64.s); negation is exact, so the two
// kernels write the same bits.
func (s *State) ApplyCZ(a, b int) error {
	if err := s.checkQubit(a); err != nil {
		return err
	}
	if err := s.checkQubit(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("quantum: two-qubit gate needs distinct qubits, got %d twice", a)
	}
	if vectorRows && len(s.amps) >= vectorCZMin {
		vectorCZ(s.amps, min(a, b), max(a, b))
		return nil
	}
	goCZ(s.amps, 1<<uint(a)|1<<uint(b))
	return nil
}

// vectorCZMin is the smallest state whose sign flip runs on the vector unit.
// Below it the kernel's set-up costs as much as the Go walk's few steps.
const vectorCZMin = 1 << 7

// goCZ is ApplyCZ's Go walk: (i+1)|mask steps through exactly the indices
// with both of mask's bits set.
func goCZ(amps []complex128, mask int) {
	for i := mask; i < len(amps); i = (i + 1) | mask {
		amps[i] = -amps[i]
	}
}

// ApplyToffoli applies the CCX gate: the target bit flips on basis states
// where both control bits are set. Implemented as a direct amplitude
// permutation — cheaper and simpler than an 8x8 matrix kernel.
func (s *State) ApplyToffoli(c1, c2, t int) error {
	for _, q := range []int{c1, c2, t} {
		if err := s.checkQubit(q); err != nil {
			return err
		}
	}
	if c1 == c2 || c1 == t || c2 == t {
		return fmt.Errorf("quantum: Toffoli needs three distinct qubits, got %d,%d,%d", c1, c2, t)
	}
	b1 := 1 << uint(c1)
	b2 := 1 << uint(c2)
	bt := 1 << uint(t)
	for i := range s.amps {
		if i&b1 != 0 && i&b2 != 0 && i&bt == 0 {
			j := i | bt
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
	return nil
}

// ExpectationZ returns <Z_q>, the expectation of Pauli-Z on qubit q.
func (s *State) ExpectationZ(q int) (float64, error) {
	if err := s.checkQubit(q); err != nil {
		return 0, err
	}
	bit := 1 << uint(q)
	sum := 0.0
	for i, a := range s.amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if i&bit == 0 {
			sum += p
		} else {
			sum -= p
		}
	}
	return sum, nil
}

// MeasureQubit performs a projective Z measurement of qubit q, collapsing the
// state, and returns the outcome (0 or 1).
func (s *State) MeasureQubit(q int, rng *rand.Rand) (int, error) {
	if err := s.checkQubit(q); err != nil {
		return 0, err
	}
	bit := 1 << uint(q)
	p0 := 0.0
	for i, a := range s.amps {
		if i&bit == 0 {
			p0 += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	outcome := 1
	if rng.Float64() < p0 {
		outcome = 0
	}
	keepZero := outcome == 0
	norm := p0
	if !keepZero {
		norm = 1 - p0
	}
	if norm < 1e-300 {
		return 0, fmt.Errorf("quantum: measurement branch has zero probability")
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range s.amps {
		zero := i&bit == 0
		if zero == keepZero {
			s.amps[i] *= inv
		} else {
			s.amps[i] = 0
		}
	}
	return outcome, nil
}

// aliasMinShots is the bulk-sampling crossover: building the Walker alias
// table costs a few passes over 2^n buckets, so tiny draws stay on the
// cumulative table + binary search.
const aliasMinShots = 16

// OutcomeWeights reweights a state's outcome distribution by a product over
// qubits: outcome i's probability |amp_i|² is multiplied by W[q][b] for
// every qubit q in Mask, b being bit q of i. It is what a diagonal operator
// waiting on a qubit does to the outcomes: applying diag(d0, d1) to qubit q
// and then taking |amp|² is the weight {|d0|², |d1|²} on q.
type OutcomeWeights struct {
	Mask uint32 // bit q set: W[q] applies (MaxQubits < 32)
	W    [MaxQubits][2]float64
}

// SetDiagonal puts the weights of the diagonal operator d on qubit q.
func (w *OutcomeWeights) SetDiagonal(q int, d Matrix2) {
	a, b := d[0][0], d[1][1]
	w.W[q] = [2]float64{real(a)*real(a) + imag(a)*imag(a), real(b)*real(b) + imag(b)*imag(b)}
	w.Mask |= 1 << uint(q)
}

// SampleBitstrings draws shots measurement outcomes from the state without
// collapsing it. Each outcome is the integer whose bit q is qubit q's result.
// Only the returned slice is allocated: the sampling tables live in the
// state's reusable scratch buffers.
func (s *State) SampleBitstrings(shots int, rng *rand.Rand) []int {
	return s.SampleBitstringsInto(nil, shots, rng)
}

// SampleBitstringsInto is SampleBitstrings reusing dst's backing array when
// its capacity suffices: SampleWeightedInto with no weights.
func (s *State) SampleBitstringsInto(dst []int, shots int, rng *rand.Rand) []int {
	return s.SampleWeightedInto(dst, shots, rng, nil)
}

// SampleBitstring draws one measurement outcome from the state without
// collapsing it: SampleWeightedInto's single draw, allocating nothing once
// the state's scratch is warm.
func (s *State) SampleBitstring(rng *rand.Rand) int {
	var one [1]int
	return s.SampleWeightedInto(one[:], 1, rng, nil)[0]
}

// SampleWeightedInto draws shots outcomes from the state's distribution
// reweighted by w (nil: unweighted) without collapsing it, reusing dst's
// backing array when its capacity suffices. It is the one sampler: the
// distribution is filled in one pass into the state's scratch — the
// weights multiplied in there, from two half-register tables — and then
// each sample consumes exactly one rng draw: a linear scan for a single
// shot, where a table would be built for one use, the cumulative table and
// binary search below aliasMinShots, and O(1) Walker alias draws above.
func (s *State) SampleWeightedInto(dst []int, shots int, rng *rand.Rand, w *OutcomeWeights) []int {
	if cap(dst) < shots {
		dst = make([]int, shots)
	}
	dst = dst[:shots]
	if shots == 0 {
		return dst
	}
	probs, total := s.weightedProbs(w)
	if shots == 1 {
		r := rng.Float64() * total
		acc := 0.0
		for i, p := range probs {
			if acc += p; r < acc {
				dst[0] = i
				return dst
			}
		}
		dst[0] = len(probs) - 1 // rounding pushed r past the total weight
		return dst
	}
	if shots >= aliasMinShots {
		if err := s.aliasScratch.Init(probs, total); err == nil {
			for k := range dst {
				dst[k] = s.aliasScratch.Sample(rng)
			}
			return dst
		}
		// Init only fails on a degenerate (zero-norm) distribution; fall
		// through to the cumulative path, which keeps the historical
		// behaviour there.
	}
	acc := 0.0
	for i, p := range probs {
		acc += p
		probs[i] = acc
	}
	for k := range dst {
		dst[k] = sampleCumulative(probs, acc, rng)
	}
	return dst
}

// weightedProbs fills the state's probability scratch with |amp_i|² times
// w's weight of outcome i and returns it with its sum. The weight is a
// product of two table entries: one over the low ⌊n/2⌋ qubits, one over the
// rest, so the pass costs two multiplies per amplitude whatever the number
// of weighted qubits. The sum takes one fixed order on every host: outcome i
// adds into lane i mod 4, and the lanes combine as (s0+s1)+(s2+s3). On a CPU
// with AVX2 both passes run on the vector unit in that order
// (vectorProbs, vectorWeighted), so they read the Go passes' bits.
func (s *State) weightedProbs(w *OutcomeWeights) ([]float64, float64) {
	if cap(s.probScratch) < len(s.amps) {
		s.probScratch = make([]float64, len(s.amps))
	}
	probs := s.probScratch[:len(s.amps)]
	if w == nil || w.Mask == 0 {
		if vectorRows {
			return probs, vectorProbs(s.amps, probs)
		}
		return probs, goProbs(s.amps, probs)
	}
	nlo := 1 << uint(s.n/2)
	if need := nlo + len(s.amps)/nlo; cap(s.weightScratch) < need {
		s.weightScratch = make([]float64, need)
	}
	lo := w.table(s.weightScratch[:nlo], 0)
	hi := w.table(s.weightScratch[nlo:nlo+len(s.amps)/nlo], s.n/2)
	if vectorRows {
		return probs, vectorWeighted(s.amps, probs, lo, hi)
	}
	return probs, goWeighted(s.amps, probs, lo, hi)
}

// goProbs is weightedProbs's plain Go pass, and the reference for the
// vector pass's bits: probs[i] = |amps[i]|², and their sum in lane order.
// Each product is rounded on its own (float64(x*y)), so no compiler fuses it
// into a multiply-add.
func goProbs(amps []complex128, probs []float64) float64 {
	var lanes [4]float64
	for i, a := range amps {
		p := float64(real(a)*real(a)) + float64(imag(a)*imag(a))
		probs[i] = p
		lanes[i&3] += p
	}
	return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

// goWeighted is weightedProbs's weighted Go pass, and the reference for the
// vector pass's bits: outcome h·len(lo)+l has weight lo[l]·hi[h].
func goWeighted(amps []complex128, probs, lo, hi []float64) float64 {
	var lanes [4]float64
	i := 0
	for _, wh := range hi {
		for _, wl := range lo {
			a := amps[i]
			p := float64((float64(real(a)*real(a)) + float64(imag(a)*imag(a))) * float64(wl*wh))
			probs[i] = p
			lanes[i&3] += p
			i++
		}
	}
	return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

// table fills t, of length 2^k, with the weights of the k qubits from q0 up:
// t[j] is the product over those qubits of their weight for their bit of j.
func (w *OutcomeWeights) table(t []float64, q0 int) []float64 {
	t[0] = 1
	for k, q := 1, q0; k < len(t); k, q = k<<1, q+1 {
		if w.Mask&(1<<uint(q)) == 0 {
			copy(t[k:2*k], t[:k])
			continue
		}
		w0, w1 := w.W[q][0], w.W[q][1]
		for j, v := range t[:k] {
			t[j], t[j|k] = v*w0, v*w1
		}
	}
	return t
}

// sampleCumulative binary-searches a cumulative weight table for one draw.
func sampleCumulative(cum []float64, total float64, rng *rand.Rand) int {
	r := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Histogram counts sampled outcomes into a map keyed by basis index.
func Histogram(samples []int) map[int]int {
	h := make(map[int]int)
	for _, s := range samples {
		h[s]++
	}
	return h
}

// FormatBitstring renders basis index idx as an n-character bitstring with
// qubit 0 rightmost (e.g. idx=1, n=3 -> "001").
func FormatBitstring(idx, n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		if idx&(1<<uint(n-1-i)) != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
