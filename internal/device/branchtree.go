package device

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mix"
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
// Forks: a forked subtree draws from a stream of its own, seeded by one
// draw of its parent's, and its leaves are read out after the walk, so its
// decisions do not depend on when, or on which goroutine, it runs. That
// lets a wide job hand its forks to a helper goroutine on an idle core
// (branchJob) and still read the counts it reads alone.
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

// defaultBranchStateBudget caps the states (root + forks) along one path of
// a branch-tree job. A fork that would go past it replays its shots one at
// a time from the checkpoint instead — exact, just slower. The rule reads
// the path alone, so it forks or replays alike wherever the path runs. A
// helped job queues a fork only while its two goroutines and its queue
// hold fewer states than the budget together, and runs it inline past
// that: the queue never holds more than the budget, nor does either
// goroutine's path. It is the value of compiledJob.stateBudget outside
// tests.
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
}

func (p *pending) reset() { p.mask, p.phase, p.floor = 0, 0, 1 }

// inherit makes c the pending of a state forked off p's: p's phase-only
// entries, which the fork's copied amplitudes lack just as p's state's do.
// Forks are taken right after an exact site has flushed everything else.
func (c *pending) inherit(p *pending) {
	c.mask, c.phase, c.floor = p.phase, p.phase, 1
	for ph := p.phase; ph != 0; ph &= ph - 1 {
		q := bits.TrailingZeros32(ph)
		c.m[q] = p.m[q]
	}
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
// redundancy-collapse metric), how its noise sites were resolved — in
// O(1) under the floor, or exactly, from the qubit's density — and the
// subtrees it forked onto copied states, of which helped ran on a job's
// helper goroutine.
type runStats struct {
	leaves, exactSites, deferredSites int
	forks, helped                     int
}

func (s *runStats) add(o runStats) {
	s.leaves += o.leaves
	s.exactSites += o.exactSites
	s.deferredSites += o.deferredSites
	s.forks += o.forks
	s.helped += o.helped
}

// frame is what one subtree draws from, beside the pending operators of its
// state. A forked subtree draws from a stream of its own, seeded from one
// draw of its parent's, so its draws depend on that one value alone — not on
// when, or on which goroutine, it runs. Its samples are read out after the
// walk (branchJob.readForked). next serves the subtrees forked off this
// one's that run inline: the walk is depth-first, so at most one of them is
// live at a time, and the chain grows to the deepest fork reached and is
// reused from there on.
type frame struct {
	p    pending
	rng  *rand.Rand
	own  jobStream // a forked subtree's stream; rng points at it
	next *frame
}

func (f *frame) init() { f.own.Rand = *rand.New(&f.own.src) }

func newFrame() *frame {
	f := new(frame)
	f.init()
	return f
}

// streamHook, when set, sees the generator of every forked subtree as it is
// seeded and returns the one the subtree draws through. Only tests set it
// (draws_test.go), to count the draws of every stream.
var streamHook func(*rand.Rand) *rand.Rand

// start readies f for a subtree forked off a state whose pending is parent,
// seeded by v, one draw of the parent's stream: a PCG whose two words are v
// and its complement through the finalizer, as jobRNG seeds a job.
func (f *frame) start(parent *pending, v uint64) {
	f.p.inherit(parent)
	f.own.src.pcg.Seed(mix.Fmix64(v), mix.Fmix64(^v))
	f.rng = &f.own.Rand
	if streamHook != nil {
		f.rng = streamHook(f.rng)
	}
}

// child returns the frame the subtrees forked off f's run on inline.
func (f *frame) child() *frame {
	if f.next == nil {
		f.next = newFrame()
	}
	return f.next
}

// helpMinAmps is the register size, in amplitudes, from which a job takes
// a helper goroutine when a core is free for one: from 2^11 on, a helper
// saves a job more time than it adds CPU (at 2^10 it saved 58 µs of a
// 342 µs job for 106 µs more CPU, at 2^11 221 µs of 656 µs for 113 µs;
// EXPERIMENTS.md E39).
const helpMinAmps = 1 << 11

// helpers counts the helper slots taken, process-wide. There are
// GOMAXPROCS−1 of them: one per core the jobs' own goroutines can leave
// idle.
var helpers atomic.Int32

// takeHelperSlot takes a helper slot if one is free; it never waits for
// one.
func takeHelperSlot() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for n := helpers.Load(); n < limit; n = helpers.Load() {
		if helpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// helperRule overrides the helper rule in tests; helperBySize, the rule,
// outside them.
type helperRule int8

const (
	helperBySize helperRule = iota // helpMinAmps and a free slot
	helperAlways                   // every job, without a slot
	helperNever                    // no job
)

var helperMode = helperBySize

// branchJob is one execution of a compiled job: the walker of the job's own
// goroutine and, when a helper goroutine serves the job, the helper's
// walker and the queue the two share.
//
// A job whose register holds helpMinAmps amplitudes or more takes a helper
// slot if one is free. From then on a fork either goroutine takes is
// queued, LIFO, while the job holds fewer than its state budget of states
// (both goroutines' and the queue's), and run inline past that; the first
// one queued starts the helper, which pops from the queue. When its own
// path ends, the job's goroutine pops from it too, waits for the helper's
// last subtree, and gives the slot back itself: a helper giving it back
// would still hold it while the next job looks for one. Where a subtree
// runs changes nothing it draws (frame), so the counts are those of the
// walk without a helper.
//
// A goroutine that queues a fork while the other waits yields its core.
// The runtime puts a goroutine it wakes next in line on the waker's core,
// and an idle core takes it from there only after backing off for tens of
// microseconds; yielding runs the woken goroutine at once and moves the
// yielding one to the idle core instead (EXPERIMENTS.md E39).
type branchJob struct {
	cj         *compiledJob
	main, help walker
	counts     map[int]int // the job's histogram
	root       frame       // the root state's; it draws from the job's stream
	ro         readout     // the root's, on the job's stream
	keys       []int       // readForked's scratch
	slot       bool        // the job holds a helper slot
	helped     bool        // a helper serves the job; set before it starts
	started    bool        // the helper goroutine has started (under mu)
	// refs counts the goroutines still to let go of the job: the last one
	// returns it to the pool, so a helper that has not yet returned never
	// wakes in the next job.
	refs atomic.Int32

	// Shared with the helper, under mu.
	mu     sync.Mutex
	wake   sync.Cond  // the queue grew, or the job closed
	queue  []*subtree // LIFO
	spare  []*subtree // nodes to reuse
	held   int        // states held by both goroutines, queued ones included
	active int        // goroutines running a subtree (or the job's own path)
	idle   int        // goroutines waiting on wake, or the helper not yet running
	closed bool       // the job is done (close)
	err    error      // a queued subtree's first error
}

// jobs recycles branch jobs with their scratch — frames, queue nodes,
// sample buffers — so a fork, inline or queued, allocates nothing.
var jobs = sync.Pool{New: func() any {
	j := new(branchJob)
	j.wake.L = &j.mu
	j.main.job, j.help.job = j, j
	return j
}}

// walker is one goroutine's side of a job: the scratch its subtrees run on,
// and what they sampled. The root's leaf is read out as it is sampled,
// into the job's counts; a forked subtree's leaves are tallied by their
// samples on the compact register, into forked, and read out after the
// walk (readForked).
type walker struct {
	job    *branchJob
	forked map[int]int
	runStats

	tail    *quantum.State         // lazily acquired checkpoint-replay scratch
	samples []int                  // leaf sampling scratch
	weights quantum.OutcomeWeights // a leaf's diagonal operators, as weights
}

// subtree is a fork queued for whichever goroutine pops it first: its
// state, copied at the fork; the exact site's branch still to be applied
// to it; and its frame, seeded at the fork.
type subtree struct {
	st             *quantum.State
	x              exactSite
	branch         int
	weight         float64
	from, n, depth int
	f              frame
}

// runBranchTree executes shots trajectory shots by shot-branching, drawing
// the root's decisions from rng and each forked subtree's from its own
// stream (frame), so a fixed seed reproduces identical counts on any host,
// with or without a helper.
func (cj *compiledJob) runBranchTree(shots int, rng *rand.Rand) (map[int]int, runStats, error) {
	j := jobs.Get().(*branchJob)
	j.cj = cj
	j.refs.Store(1)
	j.counts = make(map[int]int, cj.countsHint(shots))
	j.root.rng = rng
	j.ro.init(cj, rng)
	err := j.run(shots)
	counts, stats := j.counts, j.main.runStats
	if j.helped {
		stats.add(j.help.runStats)
	}
	if err == nil {
		j.readForked()
	}
	j.reset()
	j.release()
	if err != nil {
		return nil, runStats{}, err
	}
	return counts, stats, nil
}

// run walks the tree from the root.
func (j *branchJob) run(shots int) error {
	w := &j.main
	if j.cj.compactQubits == 0 {
		// No gate touches a qubit: the one leaf is |0...0>, and every shot
		// reads it out.
		w.leaves = 1
		for range shots {
			j.ro.tally(j.counts, 0)
		}
		return nil
	}
	if cap(w.samples) < shots {
		w.samples = make([]int, 0, shots)
	}
	st, err := quantum.AcquireState(j.cj.compactQubits)
	if err != nil {
		return err
	}
	j.root.p.reset()
	switch helperMode {
	case helperAlways:
		j.enlist()
	case helperBySize:
		if 1<<j.cj.compactQubits >= helpMinAmps && takeHelperSlot() {
			j.slot = true
			j.enlist()
		}
	}
	err = w.run(st, &j.root, 0, shots, 1)
	quantum.ReleaseState(st)
	if j.helped {
		err = j.drain(err)
	}
	return err
}

// readForked reads out the samples of the forked subtrees' leaves, after
// the root's, on the root's readout: their sum over both walkers, in the
// order of their compact outcomes. That is a function of the samples alone,
// however the subtrees were scheduled, and it is exact: a read's flip does
// not depend on the shot it belongs to, so any order the flips do not
// choose reads the shots out alike. The root's own leaf keeps shot order.
func (j *branchJob) readForked() {
	forked := j.main.forked
	if j.helped && len(j.help.forked) > 0 {
		if forked == nil {
			forked = make(map[int]int, len(j.help.forked))
			j.main.forked = forked
		}
		for o, n := range j.help.forked {
			forked[o] += n
		}
	}
	if len(forked) == 0 {
		return
	}
	j.keys = j.keys[:0]
	for o := range forked {
		j.keys = append(j.keys, o)
	}
	slices.Sort(j.keys)
	for _, o := range j.keys {
		for range forked[o] {
			j.ro.tally(j.counts, o)
		}
	}
}

// enlist readies j for a helper, which push starts with the first fork it
// queues: a job that never forks costs no goroutine.
func (j *branchJob) enlist() {
	j.helped, j.started = true, false
	j.held, j.active, j.idle, j.closed, j.err = 1, 1, 1, false, nil
}

// release lets go of j; the last goroutine to do so returns it to the pool.
func (j *branchJob) release() {
	if j.refs.Add(-1) == 0 {
		jobs.Put(j)
	}
}

// helper is the helper goroutine: it runs queued subtrees until the job is
// closed.
func (j *branchJob) helper() {
	j.mu.Lock()
	for j.idle--; !j.closed; {
		if t := j.pop(); t != nil {
			j.runLocked(&j.help, t)
			continue
		}
		j.wait()
	}
	j.mu.Unlock()
	j.release()
}

// drain ends a helped job once its own path has ended with err: the job's
// goroutine runs what is still queued and waits for the helper's last
// subtree, then gives the slot back. It returns the first error of the
// job.
func (j *branchJob) drain(err error) error {
	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
	}
	if j.active--; j.active == 0 && len(j.queue) == 0 {
		j.close()
	}
	for !j.closed {
		if t := j.pop(); t != nil {
			j.runLocked(&j.main, t)
			continue
		}
		j.wait()
	}
	err = j.err
	j.mu.Unlock()
	if j.slot {
		helpers.Add(-1)
	}
	return err
}

// wait waits on wake, under mu.
func (j *branchJob) wait() {
	j.idle++
	j.wake.Wait()
	j.idle--
}

// push queues t, under mu, and unlocks mu; the first push starts the
// helper. If the other goroutine waits, or the helper has just started,
// push yields this one's core to it.
func (j *branchJob) push(t *subtree) {
	j.queue = append(j.queue, t)
	yield := j.idle > 0
	if !j.started {
		j.started = true
		j.refs.Add(1)
		go j.helper()
	}
	j.wake.Broadcast()
	j.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
}

// pop takes the newest queued subtree, under mu.
func (j *branchJob) pop() *subtree {
	n := len(j.queue)
	if n == 0 {
		return nil
	}
	t := j.queue[n-1]
	j.queue = j.queue[:n-1]
	j.active++
	return t
}

// runLocked runs the popped subtree t on w, unless a subtree has failed.
// It is called, and returns, with mu held.
func (j *branchJob) runLocked(w *walker, t *subtree) {
	failed := j.err != nil
	j.mu.Unlock()
	var err error
	if !failed {
		if w == &j.help {
			w.helped++
		}
		if err = t.x.apply(t.st, &t.f.p, t.branch, t.weight); err == nil {
			err = w.run(t.st, &t.f, t.from, t.n, t.depth)
		}
	}
	quantum.ReleaseState(t.st)
	t.st = nil
	j.mu.Lock()
	j.held--
	j.spare = append(j.spare, t)
	if err != nil && j.err == nil {
		j.err = err
	}
	if j.active--; j.active == 0 && len(j.queue) == 0 {
		j.close()
	}
}

// close closes the job, under mu, once nothing runs and nothing is queued:
// the job's own path counts as running until it ends, so the job is done.
// The goroutine that sees it closes it, and a helper that does returns
// without waiting again.
func (j *branchJob) close() {
	j.closed = true
	j.wake.Broadcast()
}

// reset readies j for the pool: it keeps the scratch and drops the rest.
func (j *branchJob) reset() {
	for _, w := range [2]*walker{&j.main, &j.help} {
		quantum.ReleaseState(w.tail)
		w.tail, w.runStats = nil, runStats{}
		clear(w.forked)
	}
	j.counts, j.root.rng, j.ro.cj, j.ro.rng = nil, nil, nil, nil
	j.cj, j.slot, j.helped = nil, false, false
}

// run evolves one subtree: st, with f its frame, carries n shots, is
// positioned before step from, and is the depth-th state of its path.
// Reaching the end of the program makes st a leaf. It is the one routine
// every shot goes through — tree blocks, their single-shot tails (n == 1:
// the split degenerates to the per-shot draw) and the replay fallback.
func (w *walker) run(st *quantum.State, f *frame, from, n, depth int) error {
	steps := w.job.cj.noisy
	p := &f.p
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
			n, err = w.site(st, f, i, n, depth)
		}
		if err != nil {
			return err
		}
	}
	return w.sampleLeaf(st, f, n)
}

// exactSite is a noise site resolved from the state: the site qubit's
// density as the channel sees it, and what it takes to apply a branch.
type exactSite struct {
	step  *trajStep
	kraus []quantum.Matrix2 // the step's channel
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
func resolve(st *quantum.State, p *pending, step *trajStep) (exactSite, error) {
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
	d, r, phased := phaseSplit(quantum.Mul2(x.kraus[bi], x.op))
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
// gives the next run. Minority branches fork, each on one more draw of the
// stream, which seeds the fork's own; the most-populated branch continues
// on st in place.
func (w *walker) site(st *quantum.State, f *frame, idx, n, depth int) (int, error) {
	cj := w.job.cj
	step := &cj.noisy[idx]
	p := &f.p
	logU := logUniform(f.rng)
	if logU <= float64(n)*step.logFloor {
		w.deferredSites++
		return n, p.accept(st, step)
	}
	x, err := resolve(st, p, step)
	if err != nil {
		return 0, err
	}
	ch := &cj.chans[step.ch]
	x.kraus = ch.Kraus
	var (
		wbuf [maxKrausBranches]float64
		bins [maxKrausBranches]int
		wt   = append(wbuf[:0], x.rho.Weight(ch.Kraus[0]))
		bi   int
	)
	logW0 := math.Log(wt[0])
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
		r := wt[0] + (1-wt[0])*f.rng.Float64()
		if bi, wt, err = ch.Branch(x.rho, r, wt); err != nil {
			return 0, err
		}
		bins[bi]++
		if left--; left > 0 {
			logU = logUniform(f.rng)
		}
	}
	w.exactSites++
	// The most-populated branch continues on st in place — forking it
	// instead would grow the DFS depth (and the live-state count) by one at
	// every noise site of the dominant trajectory, when it only needs to
	// grow at actual deviation points.
	keep := 0
	for bi := 1; bi < len(wt); bi++ {
		if bins[bi] > bins[keep] {
			keep = bi
		}
	}
	for bi := range wt {
		if bins[bi] == 0 || bi == keep {
			continue
		}
		if depth >= cj.stateBudget {
			err = w.replayShots(st, f, &x, idx, bi, wt[bi], bins[bi], depth)
		} else {
			err = w.fork(st, f, &x, idx, bi, wt[bi], bins[bi], depth+1, f.rng.Uint64())
		}
		if err != nil {
			return 0, err
		}
	}
	return bins[keep], x.apply(st, p, keep, wt[keep])
}

// fork runs branch bi of site x, at step idx, for its n shots on a copy of
// st, the depth-th state of its path, as a subtree seeded by v: queued
// when a helper serves the job and its states are under budget, else
// inline.
func (w *walker) fork(st *quantum.State, f *frame, x *exactSite, idx, bi int, weight float64, n, depth int, v uint64) error {
	j := w.job
	w.forks++
	fork, err := quantum.AcquireStateCopy(st)
	if err != nil {
		return err
	}
	if j.helped {
		j.mu.Lock()
		j.held++
		if j.held <= j.cj.stateBudget {
			t := j.node()
			t.st, t.x, t.branch, t.weight = fork, *x, bi, weight
			t.from, t.n, t.depth = idx+1, n, depth
			t.f.start(&f.p, v)
			j.push(t)
			return nil
		}
		j.mu.Unlock()
		if w == &j.help {
			w.helped++
		}
	}
	c := f.child()
	c.start(&f.p, v)
	if err = x.apply(fork, &c.p, bi, weight); err == nil {
		err = w.run(fork, c, idx+1, n, depth)
	}
	quantum.ReleaseState(fork)
	if j.helped {
		j.mu.Lock()
		j.held--
		j.mu.Unlock()
	}
	return err
}

// node returns a queue node to fill, under mu.
func (j *branchJob) node() *subtree {
	if n := len(j.spare); n > 0 {
		t := j.spare[n-1]
		j.spare = j.spare[:n-1]
		return t
	}
	t := new(subtree)
	t.f.init()
	return t
}

// logUniform returns log U for U uniform on (0, 1]: the draw a geometric
// run length is read from.
func logUniform(rng *rand.Rand) float64 { return math.Log(1 - rng.Float64()) }

// replayShots is the state-budget fallback: the branch's shots run one at a
// time from the fork point, each rewinding the shared tail scratch to the
// checkpoint and finishing the program as a one-shot subtree on a stream
// seeded by its own draw, as a fork's is — so a fork of one shot and its
// replay decide alike. The exactness guarantee costs nothing, only the
// prefix sharing stops.
func (w *walker) replayShots(src *quantum.State, f *frame, x *exactSite, idx, branch int, weight float64, n, depth int) error {
	if w.tail == nil {
		t, err := quantum.AcquireState(src.NumQubits())
		if err != nil {
			return err
		}
		w.tail = t
	}
	c := f.child()
	for s := 0; s < n; s++ {
		if err := w.tail.Set(src); err != nil {
			return err
		}
		c.start(&f.p, f.rng.Uint64())
		if err := x.apply(w.tail, &c.p, branch, weight); err != nil {
			return err
		}
		if err := w.run(w.tail, c, idx+1, 1, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// sampleLeaf draws the leaf's n shots from its final state, f its frame:
// the non-diagonal pending operators are flushed, and the diagonal ones
// weight the one probability pass the sampler makes.
func (w *walker) sampleLeaf(st *quantum.State, f *frame, n int) error {
	w.leaves++
	if err := f.p.leaf(st, &w.weights); err != nil {
		return err
	}
	w.samples = st.SampleWeightedInto(w.samples, n, f.rng, &w.weights)
	if j := w.job; f == &j.root {
		for _, s := range w.samples {
			j.ro.tally(j.counts, s)
		}
		return nil
	}
	if w.forked == nil {
		w.forked = make(map[int]int)
	}
	for _, s := range w.samples {
		w.forked[s]++
	}
	return nil
}
