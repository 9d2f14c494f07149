package device

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"time"

	"repro/internal/circuit"
	"repro/internal/mix"
	"repro/internal/quantum"
	"repro/internal/telemetry/trace"
)

// This file is the compiled-circuit execution engine: Execute lowers a
// native circuit once into a flat program of precomputed matrices and the
// calibration epoch's noise channels (kept in the epoch's compile map,
// epoch.go), then runs its shots down the shot-branching tree
// (branchtree.go). A program with no noise channel — the digital twin, or a
// calibration with zero gate error — is one trajectory: the state is
// simulated exactly once and its one leaf samples every shot, O(gates +
// shots) instead of O(shots x gates).

// trajKind discriminates the steps of a trajectory program.
type trajKind uint8

const (
	// stepCZ applies CZ to (q, q2) — the only two-qubit gate a native
	// circuit holds.
	stepCZ trajKind = iota
	// stepGate applies the unitary m to q with no noise after it: an RZ run
	// cut off by a CZ or the circuit end, or a PRX on an error-free qubit.
	stepGate
	// stepNoise applies the channel ch to q: the sites that follow a CZ.
	stepNoise
	// stepGateNoise applies m and then ch to q as one fused noise site
	// (every PRX of a noisy device).
	stepGateNoise
)

// trajStep is one step of the trajectory program: a precomputed unitary, a
// calibration-derived noise channel, or both on the same qubit. Channel
// parameters are a pure function of the calibration snapshot, so the
// exp(-t/T1)-style math runs at compile time, not once per shot per gate.
// Error-free single-qubit runs (RZ is virtual) are fused into the next PRX's
// matrix, which preserves the trajectory distribution exactly.
//
// What a step costs at run time is decided by the walk (branchtree.go):
// bare gates, and noise sites whose one draw per visit puts every shot under
// the channel's compile-time floor, multiply an O(1) matrix into the
// qubit's pending operator and touch no amplitude; only a CZ, an exact site
// and the end of the program pass over the state.
type trajStep struct {
	kind  trajKind
	q, q2 int // compact state indices; q2 is the second CZ qubit
	m     quantum.Matrix2
	ch    quantum.Channel
	// floor is ch.Floor(): a lower bound on Kraus branch 0's weight whatever
	// the state. accept is what a site all of whose shots stay on branch 0
	// does to the qubit — K0, or K0·m on a fused site — left unrenormalised.
	floor  float64
	accept quantum.Matrix2
}

func (s *trajStep) hasNoise() bool { return len(s.ch.Kraus) > 0 }

// noiseSite completes a step that carries channel ch: its floor and the
// operator of a deferred visit.
func (s *trajStep) noiseSite(ch quantum.Channel) {
	s.ch, s.floor, s.accept = ch, ch.Floor(), ch.Kraus[0]
	if s.kind == stepGate {
		s.kind, s.accept = stepGateNoise, quantum.Mul2(s.accept, s.m)
	}
}

// compiledJob is a circuit lowered against one calibration snapshot:
// everything shot execution needs, with all per-shot decoding and
// allocation hoisted out of the loop.
type compiledJob struct {
	compactQubits int   // simulated register size; 0 when no qubit is touched
	toPhysical    []int // compact index -> physical qubit

	// noisy is the trajectory program the branch tree walks, for every job:
	// it holds no noise site when the calibration contributes no gate or
	// decoherence error, and is empty when no gate touches a qubit.
	noisy []trajStep
	// readout is the classical confusion model laid out for drawing per
	// flip, nil when every qubit reads out perfectly.
	readout *readoutPlan

	// stateBudget caps the states along one path of a branch-tree run of
	// this job (defaultBranchStateBudget; a field so a test can squeeze its
	// own job onto the replay path).
	stateBudget int

	durPerShotUs float64
}

// ExecStats counts execution-engine activity: program-cache effectiveness
// and what the shots cost. Exposed so the QRM pipeline metrics (and
// benches) can see engine behaviour without instrumenting the hot loop.
type ExecStats struct {
	CompileHits   uint64 `json:"compile_hits"`
	CompileMisses uint64 `json:"compile_misses"`

	// Shot-branching: the jobs/shots, every one of which rides the
	// trajectory tree, and the unique leaf states those shots collapsed
	// into — leaves/shots is the redundancy the tree removed (1.0 would be
	// per-shot simulation; a noiseless job is one leaf).
	BranchTreeJobs  uint64 `json:"branch_tree_jobs"`
	BranchTreeShots uint64 `json:"branch_tree_shots"`
	BranchLeaves    uint64 `json:"branch_leaves"`
}

// LeavesPerShot returns the mean unique-leaf fraction of branch-tree shots:
// the smaller, the more trajectory work the tree amortized (1.0 would mean
// every shot evolved its own state).
func (s ExecStats) LeavesPerShot() float64 {
	if s.BranchTreeShots == 0 {
		return 0
	}
	return float64(s.BranchLeaves) / float64(s.BranchTreeShots)
}

// ExecStats returns a snapshot of the engine counters.
func (d *QPU) ExecStats() ExecStats {
	d.mu.Lock()
	s := d.execStats
	d.mu.Unlock()
	s.CompileHits, s.CompileMisses = d.compileHits.Load(), d.compileMisses.Load()
	return s
}

// Execute runs a native circuit for the given number of shots through the
// compiled-circuit engine. The circuit must already be transpiled: only
// PRX, RZ, CZ and barriers are accepted (callers go through the QRM, whose
// JIT compiler guarantees this). The noise model is identical to
// ExecuteNaive — the reference per-shot implementation the equivalence
// tests check against:
//   - every PRX applies depolarizing(1-F1Q) on its qubit;
//   - every CZ applies depolarizing((1-FCZ)/2) on both qubits;
//   - RZ is virtual (frame update): error-free and duration-free;
//   - after each gate, the acting qubits accumulate T1/T2 decoherence for
//     the gate duration;
//   - measured bits flip through the per-qubit readout confusion model.
//
// Compilation is cached in the calibration epoch's compile map, so a batch
// of identical jobs (the VQE measurement loop) compiles once per epoch. The
// branch tree draws the root's decisions from the job's own stream (Run)
// and each forked subtree's from a stream seeded by one draw of its
// parent's, so the counts do not depend on which goroutine ran a subtree;
// an in-process call takes its job seed from the seeded device RNG, so a
// fixed device seed and call order reproduce identical counts on any host.
func (d *QPU) Execute(c *circuit.Circuit, shots int) (*Result, error) {
	return d.ExecuteCtx(context.Background(), c, shots)
}

// ExecuteCtx is Execute with a caller context carrying an optional trace
// span: the engine records child spans for its compile lookup
// (engine-compile), the simulation (with its leaves, site and fork
// counts), and the control-electronics pacing sleep. With no span in ctx
// the overhead is a few nil checks.
func (d *QPU) ExecuteCtx(ctx context.Context, c *circuit.Circuit, shots int) (*Result, error) {
	if err := d.validateExecution(c, shots); err != nil {
		return nil, err
	}
	_, compileSpan := trace.StartSpan(ctx, "engine-compile")
	cp, hit, err := d.Epoch().native(c)
	if hit {
		compileSpan.End(trace.Str("cache", "hit"))
	} else {
		compileSpan.End(trace.Str("cache", "miss"))
	}
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	seed := d.rng.Uint64()
	d.mu.Unlock()
	return d.Run(ctx, cp, shots, seed)
}

// Run executes a compiled job (Epoch.Prepare) for shots shots, with the
// noise of the epoch it was compiled on, recording the simulate and pace
// spans under ctx's span. Every draw comes from the job's own stream, seeded
// by the device seed and seed (jobRNG), or from a fork's stream seeded off
// it: the counts are a function of the program, the epoch and the two
// seeds, whatever ran on the device before and whether a helper goroutine
// ran part of the tree — the fleet passes the job ID, so a job re-executed
// after a crash returns the counts of its first run.
func (d *QPU) Run(ctx context.Context, cp *Compiled, shots int, seed uint64) (*Result, error) {
	if shots < 1 {
		return nil, fmt.Errorf("device: shots must be >= 1, got %d", shots)
	}
	cj := cp.cj
	d.mu.Lock()
	if d.injectedFaults > 0 {
		d.injectedFaults--
		latency := d.execLatency
		d.mu.Unlock()
		// The fault surfaces after the control-electronics round trip, like a
		// real readback failure — so callers see the job in flight first.
		if latency > 0 {
			time.Sleep(latency)
		}
		return nil, fmt.Errorf("device: %s: control electronics fault (injected)", d.name)
	}
	latency := d.execLatency
	d.mu.Unlock()
	// Every job rides the shot-branching tree, whatever its shot count or
	// noise level: a noiseless program is one trajectory, and a tree of one
	// shot, or one whose shots all part ways, is the per-shot Monte-Carlo
	// loop.
	_, simSpan := trace.StartSpan(ctx, "simulate")
	counts, stats, err := cj.runBranchTree(shots, d.jobRNG(seed))
	simSpan.End(trace.Int("leaves", stats.leaves),
		trace.Int("exact_sites", stats.exactSites), trace.Int("deferred_sites", stats.deferredSites),
		trace.Int("forks", stats.forks), trace.Int("forks_helped", stats.helped))
	if err != nil {
		return nil, err
	}
	if latency > 0 {
		_, paceSpan := trace.StartSpan(ctx, "pace")
		time.Sleep(latency)
		paceSpan.End()
	}
	d.mu.Lock()
	d.execStats.BranchTreeJobs++
	d.execStats.BranchTreeShots += uint64(shots)
	d.execStats.BranchLeaves += uint64(stats.leaves)
	d.mu.Unlock()
	return &Result{Counts: counts, Shots: shots, DurationUs: cj.durPerShotUs * float64(shots)}, nil
}

// pcgSource is a math/rand/v2 PCG behind the math/rand Source64 interface
// the samplers draw through: 16 bytes of state, seeded in O(1).
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64  { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }
func (s *pcgSource) Seed(seed int64) { s.pcg.Seed(uint64(seed), 0) }

// jobStream is a generator and its source in one value: a job's stream,
// one allocation, or a forked subtree's, kept in its frame (branchtree.go).
type jobStream struct {
	rand.Rand
	src pcgSource
}

// jobRNG returns the stream of the job seeded seed on this device: a PCG
// whose two state words are the device seed and the job seed, each through
// the finalizer, so jobs with neighbouring IDs start at unrelated states and
// no two (device, job) pairs share one.
func (d *QPU) jobRNG(seed uint64) *rand.Rand {
	js := new(jobStream)
	js.src.pcg.Seed(mix.Fmix64(d.seed), mix.Fmix64(seed))
	js.Rand = *rand.New(&js.src)
	return &js.Rand
}

// compileJob lowers a validated native circuit onto the epoch's noise: its
// trajectory program and its readout plan.
func (ep *Epoch) compileJob(c *circuit.Circuit) (*compiledJob, error) {
	compact, toPhysical := compactCircuit(c)
	cj := &compiledJob{
		toPhysical:   toPhysical,
		durPerShotUs: estimateDurationUs(c, 1),
		stateBudget:  defaultBranchStateBudget,
	}
	if r := ep.readout; r != nil {
		cj.readout = newReadoutPlan(r, c.NumQubits, toPhysical)
	}
	if compact == nil {
		return cj, nil
	}
	cj.compactQubits = compact.NumQubits
	noisy, err := ep.compileTrajectoryOps(compact, toPhysical)
	if err != nil {
		return nil, err
	}
	// Refuse channels wider than a site's scratch.
	for i := range noisy {
		if s := &noisy[i]; len(s.ch.Kraus) > maxKrausBranches {
			return nil, fmt.Errorf("device: noise channel %q has %d Kraus operators, the engine holds %d", s.ch.Name, len(s.ch.Kraus), maxKrausBranches)
		}
	}
	cj.noisy = noisy
	return cj, nil
}

// compileTrajectoryOps builds the trajectory program: precomputed gate
// matrices with their calibration-derived channels. Virtual RZ runs fuse
// into the following PRX matrix (RZ is error-free, so fusion does not move
// any noise site); runs cut off by a CZ or the circuit end flush as bare
// unitaries. A first pass over the gates counts the steps — a PRX is one, a
// CZ one plus a site per endpoint its coupler leaves noise on, an RZ run one
// only where it flushes — so the program is allocated at its final length.
func (ep *Epoch) compileTrajectoryOps(compact *circuit.Circuit, toPhysical []int) ([]trajStep, error) {
	pending := make([]quantum.Matrix2, compact.NumQubits)
	has := make([]bool, compact.NumQubits)
	n := 0
	countFlush := func(q int) {
		if has[q] {
			n++
			has[q] = false
		}
	}
	for _, g := range compact.Gates {
		switch g.Name {
		case circuit.OpRZ:
			has[g.Qubits[0]] = true
		case circuit.OpPRX:
			n++
			has[g.Qubits[0]] = false
		case circuit.OpCZ:
			n++
			a, b := toPhysical[g.Qubits[0]], toPhysical[g.Qubits[1]]
			if len(ep.czNoise(a, b).Kraus) > 0 {
				n++
			}
			if len(ep.czNoise(b, a).Kraus) > 0 {
				n++
			}
			countFlush(g.Qubits[0])
			countFlush(g.Qubits[1])
		}
	}
	for q := range has {
		countFlush(q)
	}
	steps := make([]trajStep, 0, n)
	flush := func(q int) {
		if has[q] {
			steps = append(steps, trajStep{kind: stepGate, q: q, m: pending[q]})
			has[q] = false
		}
	}
	for _, g := range compact.Gates {
		switch g.Name {
		case circuit.OpRZ:
			q := g.Qubits[0]
			m := quantum.RZ(g.Params[0])
			if has[q] {
				m = quantum.Mul2(m, pending[q])
			}
			pending[q], has[q] = m, true
		case circuit.OpPRX:
			q := g.Qubits[0]
			step := trajStep{kind: stepGate, q: q, m: quantum.PRX(g.Params[0], g.Params[1])}
			if has[q] {
				step.m = quantum.Mul2(step.m, pending[q])
				has[q] = false
			}
			if ch := ep.prx[toPhysical[q]]; len(ch.Kraus) > 0 {
				step.noiseSite(ch)
			}
			steps = append(steps, step)
		case circuit.OpCZ:
			a, b := g.Qubits[0], g.Qubits[1]
			flush(a)
			flush(b)
			steps = append(steps, trajStep{kind: stepCZ, q: a, q2: b})
			phys := [2]int{toPhysical[a], toPhysical[b]}
			for i, q := range [2]int{a, b} {
				if ch := ep.czNoise(phys[i], phys[1-i]); len(ch.Kraus) > 0 {
					step := trajStep{kind: stepNoise, q: q}
					step.noiseSite(ch)
					steps = append(steps, step)
				}
			}
		default:
			return nil, fmt.Errorf("device: non-native gate %q reached executor", g.Name)
		}
	}
	for q := 0; q < compact.NumQubits; q++ {
		flush(q)
	}
	return steps, nil
}

// readoutPlan is a job's readout confusion laid out for the readout pass:
// the flip probabilities as log(1-p), the log chance a read comes out
// right, 0 for a read that never flips.
type readoutPlan struct {
	// keep[i][v] is that of a read v on compact qubit i.
	keep [quantum.MaxQubits][2]float64
	// idle lists the register's qubits the job never touches and that can
	// flip: they read 0, so only their P10 matters.
	idle  [quantum.MaxQubits]idleQubit
	nIdle int
}

// idleQubit is an untouched qubit of the register: its bit in the outcome
// and log(1-P10).
type idleQubit struct {
	bit  int
	keep float64
}

// newReadoutPlan lays out the first n qubits of r for a job whose compact
// register sits at toPhysical, or returns nil when none of them can flip.
func newReadoutPlan(r *quantum.ReadoutModel, n int, toPhysical []int) *readoutPlan {
	plan := new(readoutPlan)
	flips := false
	touched := uint64(0)
	for i, q := range toPhysical {
		plan.keep[i] = [2]float64{math.Log1p(-r.P10[q]), math.Log1p(-r.P01[q])}
		flips = flips || r.P10[q] > 0 || r.P01[q] > 0
		touched |= 1 << uint(q)
	}
	for q := 0; q < n; q++ {
		if touched&(1<<uint(q)) == 0 && r.P10[q] > 0 {
			plan.idle[plan.nIdle] = idleQubit{bit: 1 << uint(q), keep: math.Log1p(-r.P10[q])}
			plan.nIdle++
			flips = true
		}
	}
	if !flips {
		return nil
	}
	return plan
}

// never is the gap of a read that cannot flip: past any job's last shot.
const never = math.MaxInt64 / 2

// readout is one job's pass of its samples through the readout confusion:
// the root leaf's in shot order, then the forked subtrees' in the order of
// their outcomes (branchJob.readForked). The flips of one (qubit, read
// value) pair are independent trials over that pair's reads, so the reads
// between two flips are a geometric count: it is drawn once per flip and
// counted down, and a job's readout costs a draw per flip, not one per shot
// per qubit. An untouched qubit always reads 0, so its countdown runs over
// the shot index itself and a shot without a flip costs it nothing.
type readout struct {
	cj  *compiledJob
	rng *rand.Rand
	// left[i][v] counts the reads v of compact qubit i still to come out
	// right before the next flip; -1 while no gap is drawn.
	left [quantum.MaxQubits][2]int
	// shot numbers the samples tallied so far; idleAt[k] is the shot at
	// which idle qubit k next reads 1, and next is the least of them.
	shot, next int
	idleAt     [quantum.MaxQubits]int
}

// init readies r for cj's samples, drawn from rng: one draw per idle qubit
// places its first flip.
func (r *readout) init(cj *compiledJob, rng *rand.Rand) {
	r.cj, r.rng, r.shot = cj, rng, 0
	plan := cj.readout
	if plan == nil {
		return
	}
	for i := range cj.toPhysical {
		r.left[i] = [2]int{-1, -1}
	}
	r.next = never
	for k := 0; k < plan.nIdle; k++ {
		r.idleAt[k] = r.gap(plan.idle[k].keep)
		r.next = min(r.next, r.idleAt[k])
	}
}

// gap draws how many reads with log(1-p) = keep come out right before the
// next flip: ⌊log U / keep⌋ for U uniform on (0, 1], geometric with success
// chance p. A read that cannot flip draws nothing.
func (r *readout) gap(keep float64) int {
	if keep == 0 {
		return never
	}
	if g := logUniform(r.rng) / keep; g < never {
		return int(g)
	}
	return never
}

// tally maps a compact-register sample to the register, reads it out and
// counts it.
func (r *readout) tally(counts map[int]int, sample int) {
	plan := r.cj.readout
	outcome := 0
	for i, q := range r.cj.toPhysical {
		v := sample >> uint(i) & 1
		if plan != nil {
			left := &r.left[i][v]
			if *left < 0 {
				*left = r.gap(plan.keep[i][v])
			}
			if *left == 0 {
				v ^= 1
				*left = -1
			} else {
				*left--
			}
		}
		outcome |= v << uint(q)
	}
	if plan != nil && r.shot == r.next {
		r.next = never
		for k := 0; k < plan.nIdle; k++ {
			if r.idleAt[k] == r.shot {
				outcome |= plan.idle[k].bit
				r.idleAt[k] += 1 + r.gap(plan.idle[k].keep)
			}
			r.next = min(r.next, r.idleAt[k])
		}
	}
	r.shot++
	counts[outcome]++
}

// countsHint sizes a counts map: outcomes are bounded by both the shot
// count and (ignoring readout flips) the register dimension.
func (cj *compiledJob) countsHint(shots int) int {
	hint := shots
	if cj.compactQubits < 10 && 1<<uint(cj.compactQubits) < hint {
		hint = 1 << uint(cj.compactQubits)
	}
	if hint > 1024 {
		hint = 1024
	}
	return hint
}
