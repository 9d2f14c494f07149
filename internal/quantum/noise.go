package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
)

// Channel is a single-qubit quantum channel expressed as Kraus operators.
// Sum_i K_i† K_i must equal the identity (trace preservation).
type Channel struct {
	Name  string
	Kraus []Matrix2
}

// Valid reports whether the channel is trace-preserving within tol.
func (c Channel) Valid(tol float64) bool {
	var sum Matrix2
	for _, k := range c.Kraus {
		kk := Mul2(Dagger2(k), k)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				sum[i][j] += kk[i][j]
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			d := sum[i][j] - want
			if math.Hypot(real(d), imag(d)) > tol {
				return false
			}
		}
	}
	return true
}

// AmplitudeDamping returns the T1-relaxation channel with decay probability
// gamma = 1 - exp(-t/T1): excited-state population decays toward |0>.
func AmplitudeDamping(gamma float64) Channel {
	g := clamp01(gamma)
	return Channel{
		Name: "amplitude-damping",
		Kraus: []Matrix2{
			{{1, 0}, {0, complex(math.Sqrt(1-g), 0)}},
			{{0, complex(math.Sqrt(g), 0)}, {0, 0}},
		},
	}
}

// PhaseDamping returns the pure-dephasing channel with dephasing parameter
// lambda, eroding off-diagonal coherence (the T2 process beyond T1): <X>
// scales by sqrt(1-lambda). It is expressed in the phase-flip Kraus form
// {√(1-p)·I, √p·Z} with p = (1-√(1-λ))/2, which is unitarily equivalent to
// the textbook projector form but preserves populations along every
// individual trajectory, not just on ensemble average.
func PhaseDamping(lambda float64) Channel {
	l := clamp01(lambda)
	p := float64((1 - math.Sqrt(1-l)) / 2) // x/2 is x·0.5: rounded, it does not fuse into 1-p
	s0 := complex(math.Sqrt(1-p), 0)
	s1 := complex(math.Sqrt(p), 0)
	return Channel{
		Name: "phase-damping",
		Kraus: []Matrix2{
			{{s0, 0}, {0, s0}},
			{{s1, 0}, {0, -s1}},
		},
	}
}

// Depolarizing returns the single-qubit depolarizing channel with error
// probability p (X, Y, Z each applied with probability p/3) — the standard
// abstraction for gate infidelity.
func Depolarizing(p float64) Channel {
	pp := clamp01(p)
	s0 := complex(math.Sqrt(1-pp), 0)
	sp := complex(math.Sqrt(pp/3), 0)
	return Channel{
		Name: "depolarizing",
		Kraus: []Matrix2{
			scale2(I2, s0), scale2(X, sp), scale2(Y, sp), scale2(Z, sp),
		},
	}
}

// scale2 returns f·m, each product through cmul.
func scale2(m Matrix2, f complex128) Matrix2 {
	for i := range m {
		for j := range m[i] {
			m[i][j] = cmul(m[i][j], f)
		}
	}
	return m
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Compose returns the channel equivalent to applying a and then b: Kraus
// operators are the pairwise products K_b·K_a. Trajectory sampling of the
// composite (joint probability ||K_b K_a|ψ>||²) draws from the same
// ensemble as sampling a then b sequentially, so compiled execution can
// collapse a gate's depolarizing + damping + dephasing sequence into one
// channel application. Kraus operators are ordered heaviest-first (by
// Frobenius norm, the branch weight on a maximally-mixed input) so the
// near-identity branch that dominates realistic noise is tried first.
func Compose(a, b Channel) Channel {
	ks := make([]Matrix2, 0, len(a.Kraus)*len(b.Kraus))
	for _, kb := range b.Kraus {
		for _, ka := range a.Kraus {
			ks = append(ks, Mul2(kb, ka))
		}
	}
	sort.Slice(ks, func(i, j int) bool { return frobNorm2(ks[i]) > frobNorm2(ks[j]) })
	return Channel{Name: a.Name + "*" + b.Name, Kraus: ks}
}

// Floor returns λmin(K0†K0) of the channel's first Kraus operator: a lower
// bound, known at compile time, on that operator's branch weight
// Tr(K0†K0·ρ) on every normalised state. The branch walk (Channel.Branch)
// picks branch 0 for every draw r below its weight, so a draw below the
// floor is on branch 0 whatever the state is — the trajectory engine accepts
// such draws without reading the state.
func (c Channel) Floor() float64 {
	if len(c.Kraus) == 0 {
		return 0
	}
	g00, g11, g01 := gram(c.Kraus[0])
	// The smaller eigenvalue of the Hermitian 2x2 matrix [[g00 g01] [g01* g11]].
	f := float64((g00+g11)/2) - math.Hypot((g00-g11)/2, cmplx.Abs(g01))
	if f < 0 {
		return 0 // rounding on a singular K0
	}
	return f
}

// frobNorm2 is the squared Frobenius norm of m.
func frobNorm2(m Matrix2) float64 {
	sum := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sum += float64(real(m[i][j])*real(m[i][j])) + float64(imag(m[i][j])*imag(m[i][j]))
		}
	}
	return sum
}

// QubitDensity is the reduced density matrix of one qubit of a pure state,
// ρ = [[P0, conj(C)], [C, P1]] with C = Σ conj(a0)·a1 over the amplitude
// pairs that differ only in that qubit. It is everything a noise site needs
// from the 2^n amplitudes: every Kraus branch weight of the site, and the
// effect of a single-qubit gate applied first, follow from it in O(1).
type QubitDensity struct {
	P0, P1 float64
	C      complex128
}

// QubitDensity reads qubit q's reduced density matrix in one read-only pass
// of real arithmetic. Its four sums feed trajectory branch choices, so they
// add in one fixed order on every host and at every GOMAXPROCS: the pair p,
// counted in index order, adds into lane p mod 4, and the lanes combine as
// (s0+s1)+(s2+s3). On a CPU with AVX2 the pass runs on the vector unit
// (vectorDensity, rows_amd64.s) in that order, so it reads goDensity's bits.
func (s *State) QubitDensity(q int) (QubitDensity, error) {
	if err := s.checkQubit(q); err != nil {
		return QubitDensity{}, err
	}
	var d [4]float64
	if vectorRows {
		vectorDensity(s.amps, 1<<uint(q), &d)
	} else {
		goDensity(s.amps, 1<<uint(q), &d)
	}
	return QubitDensity{P0: d[0], P1: d[1], C: complex(d[2], d[3])}, nil
}

// goDensity is QubitDensity's Go pass, and the reference for the vector
// pass's bits: it writes P0, P1, Re C and Im C of the qubit whose index bit
// is bit to d. Each product is rounded on its own (float64(x*y)), so no
// compiler fuses it into a multiply-add.
func goDensity(amps []complex128, bit int, d *[4]float64) {
	var lanes [4][4]float64 // lanes[p%4]: the four sums over pairs p
	p := 0
	for base := 0; base < len(amps); base += 2 * bit {
		for i := base; i < base+bit; i++ {
			a0, a1 := amps[i], amps[i+bit]
			r0, i0, r1, i1 := real(a0), imag(a0), real(a1), imag(a1)
			l := &lanes[p&3]
			l[0] += float64(r0*r0) + float64(i0*i0)
			l[1] += float64(r1*r1) + float64(i1*i1)
			l[2] += float64(r0*r1) + float64(i0*i1)
			l[3] += float64(r0*i1) - float64(i0*r1)
			p++
		}
	}
	for k := range d {
		d[k] = (lanes[0][k] + lanes[1][k]) + (lanes[2][k] + lanes[3][k])
	}
}

// After returns the density after applying the single-qubit operator u to
// the qubit, ρ' = UρU† — how a gate ahead of a noise site is carried
// through without touching the state.
func (d QubitDensity) After(u Matrix2) QubitDensity {
	r00, r01, r10, r11 := complex(d.P0, 0), cmplx.Conj(d.C), d.C, complex(d.P1, 0)
	m00 := cmul(u[0][0], r00) + cmul(u[0][1], r10)
	m01 := cmul(u[0][0], r01) + cmul(u[0][1], r11)
	m10 := cmul(u[1][0], r00) + cmul(u[1][1], r10)
	m11 := cmul(u[1][0], r01) + cmul(u[1][1], r11)
	return QubitDensity{
		P0: real(cmul(m00, cmplx.Conj(u[0][0])) + cmul(m01, cmplx.Conj(u[0][1]))),
		P1: real(cmul(m10, cmplx.Conj(u[1][0])) + cmul(m11, cmplx.Conj(u[1][1]))),
		C:  cmul(m10, cmplx.Conj(u[0][0])) + cmul(m11, cmplx.Conj(u[0][1])),
	}
}

// Normalized returns d divided by its trace, and the trace. The density read
// from an unnormalised state |φ> is <φ|φ> times that of the normalised one,
// so this is how branch weights are taken from a state whose norm a run of
// unrenormalised Kraus operators has lowered.
func (d QubitDensity) Normalized() (QubitDensity, float64) {
	t := d.P0 + d.P1
	return QubitDensity{P0: d.P0 / t, P1: d.P1 / t, C: d.C / complex(t, 0)}, t
}

// Weight returns the trajectory branch weight ||K|ψ>||² = Tr(K†K·ρ) of
// Kraus operator k on the qubit: G00·P0 + G11·P1 + 2·Re(G01·C), G = K†K.
// G is expanded by hand (as is UρU† in After): on a 5-qubit state this O(1)
// arithmetic is as large as the pass over the amplitudes, and going through
// Mul2/Dagger2 cost a noisy GHZ(5) job ~20 %.
func (d QubitDensity) Weight(k Matrix2) float64 {
	g00, g11, g01 := gram(k)
	w := float64(g00*d.P0) + float64(g11*d.P1) + float64(2*real(cmul(g01, d.C)))
	if w < 0 {
		return 0 // cancellation on a zero-weight branch
	}
	return w
}

// gram returns G = K†K, Hermitian: its real diagonal and G01.
func gram(k Matrix2) (g00, g11 float64, g01 complex128) {
	g00 = abs2(k[0][0]) + abs2(k[1][0])
	g11 = abs2(k[0][1]) + abs2(k[1][1])
	g01 = cmul(cmplx.Conj(k[0][0]), k[0][1]) + cmul(cmplx.Conj(k[1][0]), k[1][1])
	return
}

func abs2(z complex128) float64 { return float64(real(z)*real(z)) + float64(imag(z)*imag(z)) }

// Branch resolves one uniform draw r against the channel's branch weights on
// the normalised density rho: the first Kraus operator whose cumulative
// weight exceeds r. It is the one branch walk of the repository — the drawn
// noise site of ApplyChannel and every site the trajectory engine cannot
// accept under the floor go through it. w caches the weights taken so far, a
// prefix of the Kraus list; the walk extends it only until it covers r, and
// returns it so a block of draws at one site shares the weights. When
// rounding pushes r past the total weight the heaviest branch is returned.
func (c Channel) Branch(rho QubitDensity, r float64, w []float64) (int, []float64, error) {
	acc := 0.0
	for i := range c.Kraus {
		if i == len(w) {
			w = append(w, rho.Weight(c.Kraus[i]))
		}
		acc += w[i]
		if r < acc {
			return i, w, nil
		}
	}
	best := -1
	for i, p := range w {
		if best < 0 || p > w[best] {
			best = i
		}
	}
	if best < 0 || w[best] < 1e-300 {
		// No operators at all, or numerically impossible for a
		// trace-preserving channel on a normalised state.
		return 0, w, fmt.Errorf("quantum: channel %q produced no viable branch", c.Name)
	}
	return best, w, nil
}

// maxStackBranches sizes the weight cache applySite keeps on its stack: the
// widest channel the device composes (depolarizing x amplitude damping x
// phase damping). Wider channels still work; their cache moves to the heap.
const maxStackBranches = 16

// ApplyChannel applies a single-qubit channel to qubit q using the quantum
// trajectory (Monte-Carlo wavefunction) method: Kraus operator K_i is chosen
// with probability ||K_i|ψ>||² and the state is renormalized. Averaging over
// trajectories reproduces the density-matrix evolution.
//
// The site costs one read pass (QubitDensity) and one write pass: branch
// selection draws r once and walks the Kraus list (Channel.Branch), and the
// chosen operator is applied with the renormalization 1/√w folded into its
// matrix.
func (s *State) ApplyChannel(q int, ch Channel, rng *rand.Rand) error {
	return s.applySite(q, nil, ch, rng)
}

// ApplyGateChannel is Apply1Q(q, u) followed by ApplyChannel(q, ch, rng) as
// one noise site: the gate is carried through the qubit's density for the
// branch weights and applied fused with the chosen operator, (K/√w)·U, so
// the pair costs the same two passes as the channel alone. It consumes the
// same single rng draw and picks the same branch.
func (s *State) ApplyGateChannel(q int, u Matrix2, ch Channel, rng *rand.Rand) error {
	return s.applySite(q, &u, ch, rng)
}

func (s *State) applySite(q int, u *Matrix2, ch Channel, rng *rand.Rand) error {
	rho, err := s.QubitDensity(q)
	if err != nil {
		return err
	}
	if len(ch.Kraus) == 0 {
		return fmt.Errorf("quantum: channel %q has no Kraus operators", ch.Name)
	}
	if u != nil {
		rho = rho.After(*u)
	}
	var buf [maxStackBranches]float64
	chosen, w, err := ch.Branch(rho, rng.Float64(), buf[:0])
	if err != nil {
		return err
	}
	k := ch.Kraus[chosen]
	if u != nil {
		k = Mul2(k, *u)
	}
	return s.ApplyKraus(q, k, w[chosen])
}

// ApplyKraus applies one Kraus operator to qubit q renormalized by the
// caller-supplied branch weight w = ||K|ψ>||² (QubitDensity.Weight on the
// pre-application state), as the single matrix K/√w. With QubitDensity it
// decomposes ApplyChannel so shot-branching can pick the branch for a whole
// block of shots from one set of weights.
func (s *State) ApplyKraus(q int, k Matrix2, weight float64) error {
	if weight < 1e-300 {
		return fmt.Errorf("quantum: Kraus branch weight %g too small to renormalize", weight)
	}
	return s.Apply1Q(q, scale2(k, complex(1/math.Sqrt(weight), 0)))
}

// ReadoutModel is a per-qubit classical confusion model: P10[q] is the
// probability of reading 1 given the true outcome 0, and P01[q] of reading 0
// given 1 (asymmetric, as in real dispersive readout).
type ReadoutModel struct {
	P10 []float64
	P01 []float64
}

// UniformReadout builds a symmetric readout model with error eps on all n
// qubits.
func UniformReadout(n int, eps float64) *ReadoutModel {
	p10 := make([]float64, n)
	p01 := make([]float64, n)
	for i := range p10 {
		p10[i] = eps
		p01[i] = eps
	}
	return &ReadoutModel{P10: p10, P01: p01}
}

// Corrupt flips bits of the true outcome according to the confusion model.
func (r *ReadoutModel) Corrupt(outcome int, rng *rand.Rand) int {
	if r == nil {
		return outcome
	}
	for q := range r.P10 {
		bit := 1 << uint(q)
		if outcome&bit == 0 {
			if rng.Float64() < r.P10[q] {
				outcome |= bit
			}
		} else {
			if rng.Float64() < r.P01[q] {
				outcome &^= bit
			}
		}
	}
	return outcome
}

// AssignmentFidelity returns the mean readout assignment fidelity of qubit q:
// 1 - (P10+P01)/2.
func (r *ReadoutModel) AssignmentFidelity(q int) float64 {
	if r == nil || q >= len(r.P10) {
		return 1
	}
	return 1 - (r.P10[q]+r.P01[q])/2
}
