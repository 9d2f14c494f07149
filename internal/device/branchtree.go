package device

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"

	"repro/internal/quantum"
)

// This file is the shot-branching trajectory engine: instead of re-evolving
// the statevector once per shot, a *count* of shots is propagated down a
// trajectory tree. At each compiled noise site the subtree's shots are split
// multinomially across the Kraus branches using exact state-dependent
// weights; only branches that actually receive shots fork a pooled
// copy-on-write state, and every unique leaf state samples its shots in one
// call of the state's sampler (O(1) Walker alias draws for a block of
// shots). At realistic calibration error rates nearly every shot rides the
// dominant (near-identity) branch at every site, so a 200-shot job evolves a
// handful of trajectories instead of 200.
// Every job takes this walk: a program with no noise site is one
// trajectory whose leaf samples every shot, and with few shots, or noise
// heavy enough that no two shots share a prefix, the split degenerates to
// one trajectory per shot — the per-shot Monte-Carlo loop, with nothing to
// pick between.
//
// Exactness: each shot takes Kraus branch i with its exact weight w_i,
// independently of the others — the per-shot categorical draw of the
// Monte-Carlo wavefunction method. The tree merely groups shots by shared
// Kraus prefix, so the sampled trajectory ensemble (and hence the outcome
// distribution) is that of one trajectory per shot. The equivalence tests
// pin this with chi-square checks against ExecuteNaive.
//
// Draws are per event, not per shot: nearly every shot stays on branch 0 at
// nearly every site, so a site draws the *run length* of shots that stay —
// geometric with success chance w_0, ⌊log U / log w_0⌋ for one uniform U —
// and then one uniform on [w_0, 1) to bin the shot that leaves, and a fresh
// U for the next run. A visit no shot leaves costs one draw whatever its
// shot count.
//
// Deferral: the first Kraus operator's weight Tr(K0†K0·ρ) is at least
// λmin(K0†K0) on every normalised state — a constant of the channel, the
// site's floor. If U ≤ floorⁿ, the run of n shots on branch 0 is certain
// without the state being read (w_0ⁿ ≥ floorⁿ ≥ U), and the site's
// operator need not be applied either: it waits, multiplied into the
// qubit's pending operator, until a CZ, an exact site or the leaf needs that
// qubit's amplitudes. The state's norm falls meanwhile (the operators wait
// unrenormalised); an exact site divides the density it reads by its trace,
// which makes its weights those of the normalised state, and leaves the
// state normalised. An exact site reads the run length off the same U, so
// deferral changes what a site costs and never which branch a shot takes.
//
// A flush writes only what the step that needs the qubit can see (pending).
// It writes the operator with its phases factored out and leaves the phase
// diagonal pending, which commutes with CZ, does not change another
// qubit's density and does not change |amp|²; so on a random circuit a flush
// costs 20 flops per amplitude pair instead of 28, and the phases are never
// written at all. An exact site writes its branch the same way. At the
// leaf, a diagonal operator is not applied either: its squared magnitudes
// weight the outcome distribution inside the probability pass the sampler
// makes anyway.

// maxKrausBranches is the widest channel a site's stack scratch holds, which
// is the widest gateNoiseChannel composes (depolarizing × amp-damp ×
// phase-damp = 16); compileJob refuses anything wider.
const maxKrausBranches = 16

// defaultBranchStateBudget caps the live states (root + forks along one DFS
// path) a branch-tree job may hold. Beyond it, branches replay their shots
// one at a time from the checkpoint — exact, just slower. It is the value of
// compiledJob.stateBudget outside tests.
const defaultBranchStateBudget = 32

// minDeferredNorm bounds how far deferral lets a state's norm² fall before
// pending renormalises it. A run of floor-accepted sites leaves norm² at or
// above the product of their floors, and the chance of a run that long is
// that same product, so the bound is not reached in practice; it is there so
// underflow is unreachable by construction, 200 decades above the 1e-300
// guards of the exact path.
const minDeferredNorm = 1e-100

// pending is the deferred single-qubit work of one live state: per qubit,
// the product of the bare gates and floor-accepted Kraus operators applied
// since the state's amplitudes for that qubit were last written. Deferral is
// what makes a noise site on branch 0 free: the operators commute with
// everything on other qubits, so they are multiplied together in O(1) and
// applied as one pass when a CZ, an exact site or the leaf needs the qubit.
//
// A flush writes only what the step that needs the qubit can see. It
// factors the waiting operator M as D·R, D = diag(M₀₀/|M₀₀|, M₁₁/|M₁₁|)
// (1 for a zero entry), and writes R = D†M, whose diagonal is real and
// non-negative. D stays pending, marked as phase-only, because no step
// needs it applied: it commutes with CZ; it is unitary, so it leaves every
// other qubit's reduced density — what an exact site reads — unchanged; and
// |amp|², which the leaf samples, does not depend on it. A gate or a Kraus
// operator pushed onto the qubit later multiplies into D like into any
// pending product, and the next flush factors the phases out again. An
// exact site's branch write (exactSite.apply) leaves its phases here too.
type pending struct {
	m    [quantum.MaxQubits]quantum.Matrix2
	mask uint32 // bit q set: m[q] is waiting (quantum.MaxQubits < 32)
	// phase marks the waiting operators that are a flush's leftover phase
	// diagonal D, which no flush writes (a subset of mask).
	phase uint32
	// floor is the product of the floors of the sites accepted since the
	// state was last normalised: a lower bound on its norm².
	floor float64
	// next serves the states forked off this one's. The walk is depth-first,
	// so at most one of them is live at a time: the chain grows to the
	// deepest fork the job reaches and is reused from there on.
	next *pending
}

func (p *pending) reset() { p.mask, p.phase, p.floor = 0, 0, 1 }

// child returns the pending of a state forked off p's: its phase-only
// entries, which the fork's copied amplitudes lack just as p's state's do.
// Forks are taken right after an exact site has flushed everything else.
func (p *pending) child() *pending {
	if p.next == nil {
		p.next = new(pending)
	}
	c := p.next
	c.mask, c.phase, c.floor = p.phase, p.phase, 1
	for ph := p.phase; ph != 0; ph &= ph - 1 {
		q := bits.TrailingZeros32(ph)
		c.m[q] = p.m[q]
	}
	return c
}

// push defers m on qubit q. Onto a phase diagonal, m·D scales m's columns:
// the values Mul2 computes, in half the multiplies.
func (p *pending) push(q int, m quantum.Matrix2) {
	bit := uint32(1) << uint(q)
	switch {
	case p.phase&bit != 0:
		d0, d1 := p.m[q][0][0], p.m[q][1][1]
		m[0][0], m[1][0], m[0][1], m[1][1] = m[0][0]*d0, m[1][0]*d0, m[0][1]*d1, m[1][1]*d1
	case p.mask&bit != 0:
		m = quantum.Mul2(m, p.m[q])
	}
	p.m[q], p.mask, p.phase = m, p.mask|bit, p.phase&^bit
}

// flushHook, when set, sees the matrix of every pass a flush makes and
// whether the leaf made it. Only tests set it (export_test.go).
var flushHook func(r quantum.Matrix2, leaf bool)

// flush writes qubit q's waiting operator to st, all but its phases, which
// stay pending; a phase-only entry writes nothing.
func (p *pending) flush(st *quantum.State, q int, leaf bool) error {
	bit := uint32(1) << uint(q)
	if (p.mask&^p.phase)&bit == 0 {
		return nil
	}
	d, r, phased := phaseSplit(p.m[q])
	if phased {
		p.m[q], p.phase = d, p.phase|bit
	} else {
		p.mask &^= bit
	}
	if flushHook != nil {
		flushHook(r, leaf)
	}
	return st.Apply1Q(q, r)
}

// flushAll writes every waiting operator but the phase-only ones.
func (p *pending) flushAll(st *quantum.State) error {
	for w := p.mask &^ p.phase; w != 0; w &= w - 1 {
		if err := p.flush(st, bits.TrailingZeros32(w), false); err != nil {
			return err
		}
	}
	return nil
}

// phaseSplit factors m as D·R: D = diag(m₀₀/|m₀₀|, m₁₁/|m₁₁|), 1 for a zero
// entry, and R = D†m, whose diagonal |m₀₀|, |m₁₁| is real and non-negative —
// the shape Apply1Q takes 20 flops per pair for instead of 28. phased is
// false when D is the identity (then R = m). Row i of R is row i of m times
// the conjugate of D's entry i: a negation for a negative real entry.
func phaseSplit(m quantum.Matrix2) (d, r quantum.Matrix2, phased bool) {
	d, r = quantum.I2, m
	for i := range 2 {
		z := m[i][i]
		switch {
		case imag(z) == 0 && real(z) >= 0:
			continue
		case imag(z) == 0:
			d[i][i], r[i][i], r[i][1-i] = -1, complex(-real(z), 0), -m[i][1-i]
		default:
			a := math.Sqrt(real(z)*real(z) + imag(z)*imag(z))
			if a < 1e-150 { // the squares may have underflowed
				a = cmplx.Abs(z)
			}
			inv := 1 / a
			ph := complex(real(z)*inv, imag(z)*inv)
			d[i][i], r[i][i], r[i][1-i] = ph, complex(a, 0), cmplx.Conj(ph)*m[i][1-i]
		}
		phased = true
	}
	return d, r, phased
}

// leaf readies st for sampling: a waiting operator that is diagonal is not
// applied but becomes w's weight on its qubit, and only the others are
// flushed (their phases, like the phase-only entries, |amp|² does not see).
func (p *pending) leaf(st *quantum.State, w *quantum.OutcomeWeights) error {
	w.Mask = 0
	for pend := p.mask &^ p.phase; pend != 0; pend &= pend - 1 {
		q := bits.TrailingZeros32(pend)
		if m := p.m[q]; m[0][1] == 0 && m[1][0] == 0 {
			w.SetDiagonal(q, m)
			continue
		}
		if err := p.flush(st, q, true); err != nil {
			return err
		}
	}
	return nil
}

// accept defers a noise site whose draw fell under floorⁿ: every shot of the
// state is on Kraus branch 0, whose operator joins the qubit's pending
// product unrenormalised.
func (p *pending) accept(st *quantum.State, s *trajStep) error {
	p.push(s.q, s.accept)
	if p.floor *= s.floor; p.floor >= minDeferredNorm {
		return nil
	}
	if err := p.flushAll(st); err != nil {
		return err
	}
	p.floor = 1
	return st.Normalize()
}

// runStats is what an execution reports besides its histogram: the
// unique leaf states it sampled (the leaves/shots ratio is the
// redundancy-collapse metric) and how its noise sites were resolved — in
// O(1) under the floor, or exactly, from the qubit's density.
type runStats struct {
	leaves, exactSites, deferredSites int
}

// branchExec is the state of one execution. The scratch buffers live
// here so the recursion allocates nothing per node.
type branchExec struct {
	cj     *compiledJob
	rng    *rand.Rand
	counts map[int]int
	ro     readout // the leaves' samples, in the order they are drawn

	live int // states currently held (root + outstanding forks)
	runStats

	root    pending                // the pending operators of the root state
	tail    *quantum.State         // lazily acquired checkpoint-replay scratch
	samples []int                  // leaf sampling scratch, sized for every shot
	weights quantum.OutcomeWeights // a leaf's diagonal operators, as weights
}

// runBranchTree executes shots trajectory shots by shot-branching. The walk
// is a single-goroutine DFS drawing from rng alone, so a fixed seed
// reproduces identical counts on any host.
func (cj *compiledJob) runBranchTree(shots int, rng *rand.Rand) (map[int]int, runStats, error) {
	b := &branchExec{cj: cj, rng: rng, counts: make(map[int]int, cj.countsHint(shots)), live: 1}
	b.ro.init(cj, rng)
	if cj.compactQubits == 0 {
		// No gate touches a qubit: the one leaf is |0...0>, and every shot
		// reads it out.
		b.leaves = 1
		for range shots {
			b.ro.tally(b.counts, 0)
		}
		return b.counts, b.runStats, nil
	}
	b.samples = make([]int, 0, shots)
	st, err := quantum.AcquireState(cj.compactQubits)
	if err != nil {
		return nil, runStats{}, err
	}
	b.root.reset()
	err = b.run(st, &b.root, 0, shots)
	quantum.ReleaseState(st)
	quantum.ReleaseState(b.tail)
	if err != nil {
		return nil, runStats{}, err
	}
	return b.counts, b.runStats, nil
}

// run evolves one subtree: st, with p its pending operators, carries n shots
// and is positioned before step from. Reaching the end of the program makes
// st a leaf. It is the one routine every shot goes through — tree
// blocks, their single-shot tails (n == 1: the split degenerates to the
// per-shot draw) and the replay fallback.
func (b *branchExec) run(st *quantum.State, p *pending, from, n int) error {
	steps := b.cj.noisy
	for i := from; i < len(steps); i++ {
		s := &steps[i]
		var err error
		switch s.kind {
		case stepCZ:
			if err = p.flush(st, s.q, false); err == nil {
				err = p.flush(st, s.q2, false)
			}
			if err == nil {
				err = st.ApplyCZ(s.q, s.q2)
			}
		case stepGate:
			p.push(s.q, s.m)
		default:
			n, err = b.site(st, p, i, n)
		}
		if err != nil {
			return err
		}
	}
	return b.sampleLeaf(st, p, n)
}

// exactSite is a noise site resolved from the state: the site qubit's
// density as the channel sees it, and what it takes to apply a branch.
type exactSite struct {
	step *trajStep
	// rho is the qubit's reduced density after op, normalised; trace is what
	// it was divided by — the norm² the state will have once op is applied.
	rho   quantum.QubitDensity
	trace float64
	// op is everything still to be applied to the qubit ahead of the Kraus
	// operator: its pending product, then the step's gate.
	op quantum.Matrix2
}

// resolve reads the site at step from st. The density of one qubit depends
// on the unrenormalised operators waiting on the others, so those are
// flushed; their phase-only entries are unitary, so they do not change it
// and stay pending. The site qubit's own operator, phases included, is
// carried through the density in O(1) and stays unapplied, to be fused with
// the chosen Kraus operator. p is left holding only phase-only entries, and
// its floor product is reset: the branch applied next normalises st.
func (b *branchExec) resolve(st *quantum.State, p *pending, step *trajStep) (exactSite, error) {
	x := exactSite{step: step, op: quantum.I2}
	if bit := uint32(1) << uint(step.q); p.mask&bit != 0 {
		x.op, p.mask, p.phase = p.m[step.q], p.mask&^bit, p.phase&^bit
	}
	if step.kind == stepGateNoise {
		x.op = quantum.Mul2(step.m, x.op)
	}
	if err := p.flushAll(st); err != nil {
		return x, err
	}
	p.floor = 1
	rho, err := st.QubitDensity(step.q)
	if err != nil {
		return x, err
	}
	if x.rho, x.trace = rho.After(x.op).Normalized(); x.trace < 1e-300 {
		return x, fmt.Errorf("device: state norm² %g too small to take branch weights from", x.trace)
	}
	return x, nil
}

// apply puts st — a copy of the state resolve read, p its pending — on
// Kraus branch bi of normalised weight w, as the one matrix K·op/√(w·trace):
// st comes out normalised whatever norm deferral had left it with. Like a
// flush, it writes that matrix with its phases factored out and leaves them
// pending on the site qubit, which resolve emptied: K0 after a CZ is a real
// diagonal, and stays on the two-multiply path with the qubit's phases
// folded in.
func (x *exactSite) apply(st *quantum.State, p *pending, bi int, w float64) error {
	d, r, phased := phaseSplit(quantum.Mul2(x.step.ch.Kraus[bi], x.op))
	if phased {
		bit := uint32(1) << uint(x.step.q)
		p.m[x.step.q], p.mask, p.phase = d, p.mask|bit, p.phase|bit
	}
	return st.ApplyKraus(x.step.q, r, w*x.trace)
}

// site takes the subtree's n shots through the noise site at step idx and
// returns the count continuing on st.
//
// It draws one uniform U. If U ≤ floorⁿ every shot is on branch 0 and
// nothing is read: the site is deferred into p. Otherwise the site is
// exact: the same U gives the run of shots staying on branch 0 against the
// state's weight w_0, each shot that leaves is binned by a uniform on
// [w_0, 1) against the other weights (taken lazily, heaviest-first: the
// cumulative weight only grows until it covers the draw), and a fresh U
// gives the next run. Minority branches recurse into forked states, and the
// most-populated branch continues on st in place.
func (b *branchExec) site(st *quantum.State, p *pending, idx, n int) (int, error) {
	step := &b.cj.noisy[idx]
	logU := logUniform(b.rng)
	if logU <= float64(n)*math.Log(step.floor) {
		b.deferredSites++
		return n, p.accept(st, step)
	}
	x, err := b.resolve(st, p, step)
	if err != nil {
		return 0, err
	}
	var (
		wbuf [maxKrausBranches]float64
		bins [maxKrausBranches]int
		w    = append(wbuf[:0], x.rho.Weight(step.ch.Kraus[0]))
		bi   int
	)
	logW0 := math.Log(w[0])
	for left := n; left > 0; {
		// The run of shots that stay on branch 0, geometric in w_0: all
		// that are left when U ≤ w_0^left.
		stay := left
		if logU > float64(left)*logW0 {
			stay = min(int(logU/logW0), left-1)
		}
		bins[0] += stay
		if left -= stay; left == 0 {
			break
		}
		// The shot that ends the run leaves branch 0.
		r := w[0] + (1-w[0])*b.rng.Float64()
		if bi, w, err = step.ch.Branch(x.rho, r, w); err != nil {
			return 0, err
		}
		bins[bi]++
		if left--; left > 0 {
			logU = logUniform(b.rng)
		}
	}
	b.exactSites++
	// The most-populated branch continues on st in place — forking it
	// instead would grow the DFS depth (and the live-state count) by one at
	// every noise site of the dominant trajectory, when it only needs to
	// grow at actual deviation points.
	keep := 0
	for bi := 1; bi < len(w); bi++ {
		if bins[bi] > bins[keep] {
			keep = bi
		}
	}
	for bi := range w {
		if bins[bi] == 0 || bi == keep {
			continue
		}
		if b.live >= b.cj.stateBudget {
			if err := b.replayShots(st, p, &x, idx, bi, w[bi], bins[bi]); err != nil {
				return 0, err
			}
			continue
		}
		fork, err := quantum.AcquireStateCopy(st)
		if err != nil {
			return 0, err
		}
		b.live++
		c := p.child()
		err = x.apply(fork, c, bi, w[bi])
		if err == nil {
			err = b.run(fork, c, idx+1, bins[bi])
		}
		quantum.ReleaseState(fork)
		b.live--
		if err != nil {
			return 0, err
		}
	}
	return bins[keep], x.apply(st, p, keep, w[keep])
}

// logUniform returns log U for U uniform on (0, 1]: the draw a geometric
// run length is read from.
func logUniform(rng *rand.Rand) float64 { return math.Log(1 - rng.Float64()) }

// replayShots is the state-budget fallback: the branch's shots run one at a
// time from the fork point, each rewinding the shared tail scratch to the
// checkpoint and finishing the program as a one-shot subtree — the
// exactness guarantee costs nothing, only the prefix sharing stops.
func (b *branchExec) replayShots(src *quantum.State, p *pending, x *exactSite, idx, branch int, weight float64, n int) error {
	if b.tail == nil {
		t, err := quantum.AcquireState(src.NumQubits())
		if err != nil {
			return err
		}
		b.tail = t
	}
	for s := 0; s < n; s++ {
		if err := b.tail.Set(src); err != nil {
			return err
		}
		c := p.child()
		if err := x.apply(b.tail, c, branch, weight); err != nil {
			return err
		}
		if err := b.run(b.tail, c, idx+1, 1); err != nil {
			return err
		}
	}
	return nil
}

// sampleLeaf draws the leaf's n shots from its final state, p its pending
// operators: the non-diagonal ones are flushed, and the diagonal ones weight
// the one probability pass the sampler makes.
func (b *branchExec) sampleLeaf(st *quantum.State, p *pending, n int) error {
	b.leaves++
	if err := p.leaf(st, &b.weights); err != nil {
		return err
	}
	b.samples = st.SampleWeightedInto(b.samples, n, b.rng, &b.weights)
	for _, s := range b.samples {
		b.ro.tally(b.counts, s)
	}
	return nil
}
