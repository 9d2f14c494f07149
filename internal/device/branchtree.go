package device

import (
	"math/rand"

	"repro/internal/quantum"
)

// This file is the shot-branching trajectory engine: instead of re-evolving
// the statevector once per shot (runShotBlock), a *count* of shots is
// propagated down a trajectory tree. At each compiled noise site the
// subtree's shots are split multinomially across the Kraus branches using
// exact state-dependent weights; only branches that actually receive shots
// fork a pooled copy-on-write state, and every unique leaf state
// bulk-samples its shots through the O(1) Walker alias sampler. At
// realistic calibration error rates nearly every shot rides the dominant
// (near-identity) branch at every site, so a 200-shot job evolves a handful
// of trajectories instead of 200.
//
// Exactness: binning each shot with an independent uniform draw against the
// exact branch weights is literally the per-shot categorical draw of the
// Monte-Carlo wavefunction method — the tree merely groups shots by shared
// Kraus prefix, so the sampled trajectory ensemble (and hence the outcome
// distribution) is identical to runShotBlock's. The equivalence tests pin
// this with chi-square checks against both the per-shot loop and
// ExecuteNaive.

const (
	// branchTreeMinShots is the strategy floor: below it there is no
	// redundancy to amortize and the per-shot loop is cheaper.
	branchTreeMinShots = 8
	// maxBranchEventsPerShot gates the strategy pick on workload shape: the
	// compile-time estimate of off-dominant branch events per shot
	// (compiledJob.branchEst) above which trajectories stop sharing
	// prefixes and the shot-fanout loop wins.
	maxBranchEventsPerShot = 1.0
	// maxKrausBranches is the largest composed-channel fan-out the tree's
	// stack scratch supports (depolarizing × amp-damp × phase-damp = 16).
	// Wider channels fall back to the shot-fanout path via branchEst.
	maxKrausBranches = 16
)

// branchStateBudget caps the live states (root + forks along one DFS path)
// a branch-tree job may hold. Beyond it, branches replay their shots one at
// a time from the checkpoint — exact, just slower. A variable so tests can
// squeeze it to force the fallback.
var branchStateBudget = 32

// branchExec is the per-job state of one branch-tree execution: the scratch
// buffers live here so the recursion allocates nothing per node.
type branchExec struct {
	cj     *compiledJob
	rng    *rand.Rand
	counts map[int]int

	live   int // states currently held (root + outstanding forks)
	leaves int // unique leaf states sampled

	tail    *quantum.State // lazily acquired checkpoint-replay scratch
	samples []int          // leaf bulk-sampling scratch
}

// runBranchTree executes shots noisy trajectory shots by shot-branching and
// returns the histogram plus the number of unique leaf states it sampled
// (the leaves/shots ratio is the engine's redundancy-collapse metric). The
// walk is a single-goroutine DFS drawing from one rng stream, so a fixed
// seed reproduces identical counts on any host.
func (cj *compiledJob) runBranchTree(shots int, rng *rand.Rand) (map[int]int, int, error) {
	b := &branchExec{cj: cj, rng: rng, counts: make(map[int]int, cj.countsHint(shots))}
	st, err := quantum.AcquireState(cj.compactQubits)
	if err != nil {
		return nil, 0, err
	}
	b.live = 1
	err = b.run(st, 0, shots)
	quantum.ReleaseState(st)
	quantum.ReleaseState(b.tail)
	if err != nil {
		return nil, 0, err
	}
	return b.counts, b.leaves, nil
}

// run evolves one subtree: st carries n shots and is positioned before step
// from. Reaching the end of the program makes st a leaf.
func (b *branchExec) run(st *quantum.State, from, n int) error {
	steps := b.cj.noisy
	for i := from; i < len(steps); i++ {
		s := &steps[i]
		if n == 1 || !s.hasNoise() {
			// Nothing to split: a bare gate, or a single shot, whose split
			// degenerates to the per-shot draw, early exit and all.
			if err := s.applyShot(st, b.rng); err != nil {
				return err
			}
			continue
		}
		var err error
		if n, err = b.splitAt(st, i, n); err != nil {
			return err
		}
	}
	return b.sampleLeaf(st, n)
}

// splitAt distributes the subtree's n shots across the Kraus branches of
// the noise site at step idx — one independent uniform draw per shot, the
// exact multinomial split — recurses into forked states for the minority
// branches, applies the most-populated branch to st in place, and returns
// the count continuing there. st arrives before the step's gate: the
// weights come from one density pass over it, each fork copies it and
// applies its own fused gate·Kraus matrix. Branch weights are taken lazily,
// heaviest-first: the cumulative weight only grows until it covers the
// largest draw seen.
func (b *branchExec) splitAt(st *quantum.State, idx, n int) (int, error) {
	step := &b.cj.noisy[idx]
	ks := step.ch.Kraus
	rho, err := step.density(st)
	if err != nil {
		return 0, err
	}
	var w [maxKrausBranches]float64
	var bins [maxKrausBranches]int
	computed, acc := 0, 0.0
	for s := 0; s < n; s++ {
		r := b.rng.Float64()
		for acc <= r && computed < len(ks) {
			w[computed] = rho.Weight(ks[computed])
			acc += w[computed]
			computed++
		}
		chosen := -1
		c := 0.0
		for bi := 0; bi < computed; bi++ {
			c += w[bi]
			if r < c {
				chosen = bi
				break
			}
		}
		if chosen < 0 {
			// Rounding pushed r past the total weight; fall back to the
			// heaviest computed branch (the ApplyChannel convention).
			chosen = 0
			for bi := 1; bi < computed; bi++ {
				if w[bi] > w[chosen] {
					chosen = bi
				}
			}
		}
		bins[chosen]++
	}
	// The most-populated branch continues on st in place — forking it
	// instead would grow the DFS depth (and the live-state count) by one at
	// every noise site of the dominant trajectory, when it only needs to
	// grow at actual deviation points.
	keep := 0
	for bi := 1; bi < computed; bi++ {
		if bins[bi] > bins[keep] {
			keep = bi
		}
	}
	for bi := 0; bi < computed; bi++ {
		if bins[bi] == 0 || bi == keep {
			continue
		}
		if b.live >= branchStateBudget {
			if err := b.replayShots(st, idx, bi, w[bi], bins[bi]); err != nil {
				return 0, err
			}
			continue
		}
		fork, err := quantum.AcquireStateCopy(st)
		if err != nil {
			return 0, err
		}
		b.live++
		err = step.applyBranch(fork, bi, w[bi])
		if err == nil {
			err = b.run(fork, idx+1, bins[bi])
		}
		quantum.ReleaseState(fork)
		b.live--
		if err != nil {
			return 0, err
		}
	}
	if err := step.applyBranch(st, keep, w[keep]); err != nil {
		return 0, err
	}
	return bins[keep], nil
}

// replayShots is the state-budget fallback: the branch's shots run one at a
// time from the fork point, each rewinding the shared tail scratch to the
// checkpoint and finishing the program with per-shot Monte-Carlo draws —
// the exactness guarantee costs nothing, only the prefix sharing stops.
func (b *branchExec) replayShots(src *quantum.State, idx, branch int, weight float64, n int) error {
	if b.tail == nil {
		t, err := quantum.AcquireState(src.NumQubits())
		if err != nil {
			return err
		}
		b.tail = t
	}
	steps := b.cj.noisy
	for s := 0; s < n; s++ {
		st := b.tail
		if err := st.Set(src); err != nil {
			return err
		}
		if err := steps[idx].applyBranch(st, branch, weight); err != nil {
			return err
		}
		for i := idx + 1; i < len(steps); i++ {
			if err := steps[i].applyShot(st, b.rng); err != nil {
				return err
			}
		}
		b.leaves++
		b.cj.tally(b.counts, st.SampleBitstring(b.rng), b.rng)
	}
	return nil
}

// sampleLeaf draws the leaf's n shots from its final state: single shots
// take the one-draw linear walk, blocks go through the alias sampler.
func (b *branchExec) sampleLeaf(st *quantum.State, n int) error {
	b.leaves++
	if n == 1 {
		b.cj.tally(b.counts, st.SampleBitstring(b.rng), b.rng)
		return nil
	}
	b.samples = st.SampleBitstringsInto(b.samples, n, b.rng)
	for _, s := range b.samples {
		b.cj.tally(b.counts, s, b.rng)
	}
	return nil
}
