package device

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/telemetry"
)

// This file is the execution-engine bench harness behind BENCH_sim.json:
// it runs the same job stream through the naive per-shot loop
// (ExecuteNaive, the pre-engine baseline) and the compiled engine
// (Execute), and reports before/after jobs/s plus compiled-path latency
// quantiles. It is shared by the -sim.bench artifact test (the CI smoke
// gate) and `qhpcctl bench -sim`.

// NativeGHZLine builds a native-gate GHZ preparation along the grid's first
// row, qubits 0..n-1 (line connectivity), without the transpiler:
// H = RZ(pi) then PRX(pi/2, pi/2); CNOT(c,t) = H(t) CZ(c,t) H(t). It is the
// standard workload of the executor benches and equivalence tests.
func NativeGHZLine(n int) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("native-ghz-%d", n))
	h := func(q int) {
		c.RZ(q, math.Pi)
		c.PRX(q, math.Pi/2, math.Pi/2)
	}
	h(0)
	for q := 1; q < n; q++ {
		h(q)
		c.CZ(q-1, q)
		h(q)
	}
	return c
}

// snakePath45 returns the first n qubits of the boustrophedon walk over the
// 4x5 grid (the 20-qubit device): row 0 left-to-right, row 1 right-to-left,
// and so on. Consecutive path entries are always grid neighbours, so CZs
// along the path sit on real couplers at any width up to 20.
func snakePath45(n int) []int {
	const cols = 5
	path := make([]int, 0, n)
	for r := 0; len(path) < n; r++ {
		for c := 0; c < cols && len(path) < n; c++ {
			col := c
			if r%2 == 1 {
				col = cols - 1 - c
			}
			path = append(path, r*cols+col)
		}
	}
	return path
}

// registerFor sizes a circuit register to the highest physical qubit a path
// touches, so narrow workloads keep their readout model narrow.
func registerFor(path []int) int {
	max := 0
	for _, q := range path {
		if q > max {
			max = q
		}
	}
	return max + 1
}

// NativeGHZSnake builds the native GHZ preparation along the snake path of
// the 4x5 grid — the widths-beyond-one-row generalization of NativeGHZLine
// (identical to it for n <= 5).
func NativeGHZSnake(n int) *circuit.Circuit {
	path := snakePath45(n)
	c := circuit.New(registerFor(path), fmt.Sprintf("native-ghz-snake-%d", n))
	h := func(q int) {
		c.RZ(q, math.Pi)
		c.PRX(q, math.Pi/2, math.Pi/2)
	}
	h(path[0])
	for i := 1; i < n; i++ {
		h(path[i])
		c.CZ(path[i-1], path[i])
		h(path[i])
	}
	return c
}

// NativeRandom45 builds a pseudo-random native circuit over the first n
// snake qubits of the 4x5 grid: layers of RZ+PRX rotations on every qubit
// followed by CZ brickwork along the snake path. Deterministic in seed. At
// n = 16 the state crosses quantum's parallel-kernel threshold, so the
// bench measures the fan-out kernels and the branch tree together.
func NativeRandom45(n, layers int, seed int64) *circuit.Circuit {
	path := snakePath45(n)
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(registerFor(path), fmt.Sprintf("native-rand-%dq-%dl", n, layers))
	for l := 0; l < layers; l++ {
		for _, q := range path {
			c.RZ(q, 2*math.Pi*rng.Float64())
			c.PRX(q, 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64())
		}
		for i := l % 2; i+1 < n; i += 2 {
			c.CZ(path[i], path[i+1])
		}
	}
	return c
}

// SimBenchRow is one workload of the artifact: the naive (before) and
// compiled (after) numbers side by side.
type SimBenchRow struct {
	Name   string `json:"name"`
	Noisy  bool   `json:"noisy"`
	Qubits int    `json:"qubits"`
	Shots  int    `json:"shots"`
	Jobs   int    `json:"jobs"`
	// Reruns is how many independent measurements the row's numbers are the
	// median of; SpreadPct is (max-min)/median of the compiled jobs/s
	// samples.
	Reruns    int     `json:"reruns"`
	SpreadPct float64 `json:"spread_pct,omitempty"`

	NaiveJobsPerSec float64 `json:"naive_jobs_per_sec"`
	NaiveP50Ms      float64 `json:"naive_p50_ms"`
	NaiveP95Ms      float64 `json:"naive_p95_ms"`

	CompiledJobsPerSec float64 `json:"compiled_jobs_per_sec"`
	CompiledP50Ms      float64 `json:"compiled_p50_ms"`
	CompiledP95Ms      float64 `json:"compiled_p95_ms"`

	Speedup float64 `json:"speedup"`

	// BranchLeavesPerShot is the shot-branching amortization on this row's
	// compiled runs: unique trajectory leaves per shot (0 when the row did
	// not take the branch tree).
	BranchLeavesPerShot float64 `json:"branch_leaves_per_shot,omitempty"`
	// DistCacheHits counts this row's compiled jobs that skipped simulation
	// entirely (noiseless distribution cache).
	DistCacheHits uint64 `json:"dist_cache_hits,omitempty"`
}

// SimBenchArtifact is the BENCH_sim.json schema: the execution-engine perf
// record tracked across PRs. SpeedupNoiseless/SpeedupNoisy refer to the
// baseline GHZ rows (the CI smoke gates).
type SimBenchArtifact struct {
	Harness          string        `json:"harness"`
	Workload         string        `json:"workload"`
	Rows             []SimBenchRow `json:"rows"`
	SpeedupNoiseless float64       `json:"speedup_noiseless"`
	SpeedupNoisy     float64       `json:"speedup_noisy"`
}

// SimBenchConfig sizes the harness. The zero value is replaced by defaults
// (the artifact configuration). Qubits/Shots/jobs size the baseline GHZ
// rows; the wide rows (GHZ(10), random 16-qubit) derive smaller job counts
// from them so the harness stays a smoke-test, not a soak.
type SimBenchConfig struct {
	Qubits        int // GHZ width of the baseline rows (default 5)
	NoiselessJobs int // jobs on the twin workload (default 64)
	NoisyJobs     int // jobs on the noisy workload (default 24)
	Shots         int // shots per job (default 200)
	// Reruns repeats every row this many times and reports the median with
	// its spread (default 3), so the CI speedup gates — and the wide rows'
	// before/after latencies — compare medians instead of single noisy
	// samples.
	Reruns int
}

func (cfg *SimBenchConfig) fill() {
	if cfg.Qubits == 0 {
		cfg.Qubits = 5
	}
	if cfg.NoiselessJobs == 0 {
		cfg.NoiselessJobs = 64
	}
	if cfg.NoisyJobs == 0 {
		cfg.NoisyJobs = 24
	}
	if cfg.Shots == 0 {
		cfg.Shots = 200
	}
	if cfg.Reruns == 0 {
		cfg.Reruns = 3
	}
}

// executeFn abstracts the two paths under measurement.
type executeFn func(c *circuit.Circuit, shots int) (*Result, error)

// measure runs jobs sequential executions and returns throughput and
// latency quantiles (milliseconds).
func measure(fn executeFn, c *circuit.Circuit, shots, jobs int) (jobsPerSec, p50Ms, p95Ms float64, err error) {
	lat := make([]float64, 0, jobs)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		jobStart := time.Now()
		if _, err := fn(c, shots); err != nil {
			return 0, 0, 0, err
		}
		lat = append(lat, float64(time.Since(jobStart).Microseconds())/1000)
	}
	elapsed := time.Since(start)
	sort.Float64s(lat)
	q := func(p float64) float64 { return lat[int(p*float64(len(lat)-1))] }
	return float64(jobs) / elapsed.Seconds(), q(0.50), q(0.95), nil
}

// RunSimBench measures the naive per-shot loop against the compiled engine
// on the baseline GHZ workloads (noiseless twin + noisy device) plus two
// wide noisy workloads — GHZ(10) and a random 16-qubit brickwork circuit —
// where the parallel gate kernels and the shot-branching tree are measured
// at sizes that exercise them. It returns the artifact record.
func RunSimBench(cfg SimBenchConfig) (*SimBenchArtifact, error) {
	cfg.fill()
	wideJobs := cfg.NoisyJobs / 3
	if wideJobs < 1 {
		wideJobs = 1
	}
	// The 16-qubit row exists to exercise the parallel kernels inside the
	// branch tree, not to soak: the naive baseline costs ~300 ms *per shot*
	// there, so the row runs one job at an eighth of the shots.
	randShots := cfg.Shots / 8
	if randShots < 1 {
		randShots = 1
	}
	art := &SimBenchArtifact{
		Harness: "go test ./internal/device -run TestSimBenchArtifact -sim.bench",
		Workload: fmt.Sprintf("GHZ(%d) x %d shots: %d noiseless jobs (twin), %d noisy jobs (fresh calibration); wide rows: GHZ(10) x %d noisy jobs, rand-16q x %d shots x 1 noisy job; every row the median of %d reruns",
			cfg.Qubits, cfg.Shots, cfg.NoiselessJobs, cfg.NoisyJobs, wideJobs, randShots, cfg.Reruns),
	}
	workloads := []struct {
		name     string
		noisy    bool
		baseline bool // feeds SpeedupNoiseless/SpeedupNoisy (the CI gates)
		circ     *circuit.Circuit
		qubits   int
		shots    int
		jobs     int
		mk       func(seed int64) *QPU
	}{
		{name: "noiseless-ghz", baseline: true, circ: NativeGHZSnake(cfg.Qubits), qubits: cfg.Qubits, shots: cfg.Shots, jobs: cfg.NoiselessJobs, mk: NewTwin20Q},
		{name: "noisy-ghz", noisy: true, baseline: true, circ: NativeGHZSnake(cfg.Qubits), qubits: cfg.Qubits, shots: cfg.Shots, jobs: cfg.NoisyJobs, mk: New20Q},
		{name: "noisy-ghz10", noisy: true, circ: NativeGHZSnake(10), qubits: 10, shots: cfg.Shots, jobs: wideJobs, mk: New20Q},
		{name: "noisy-rand16", noisy: true, circ: NativeRandom45(16, 4, 7), qubits: 16, shots: randShots, jobs: 1, mk: New20Q},
	}
	for _, w := range workloads {
		row := SimBenchRow{Name: w.name, Noisy: w.noisy, Qubits: w.qubits, Shots: w.shots, Jobs: w.jobs, Reruns: cfg.Reruns}
		var naiveJPS, naiveP50, naiveP95, compJPS, compP50, compP95 []float64
		for r := 0; r < cfg.Reruns; r++ {
			// Fresh devices per path and per rerun so cache warmth and RNG
			// draws stay comparable; the same seed keeps calibration
			// identical, so reruns measure timing noise only.
			naive := w.mk(101)
			jps, p50, p95, err := measure(naive.ExecuteNaive, w.circ, w.shots, w.jobs)
			if err != nil {
				return nil, fmt.Errorf("simbench %s naive: %w", w.name, err)
			}
			naiveJPS = append(naiveJPS, jps)
			naiveP50 = append(naiveP50, p50)
			naiveP95 = append(naiveP95, p95)
			compiled := w.mk(101)
			if jps, p50, p95, err = measure(compiled.Execute, w.circ, w.shots, w.jobs); err != nil {
				return nil, fmt.Errorf("simbench %s compiled: %w", w.name, err)
			}
			compJPS = append(compJPS, jps)
			compP50 = append(compP50, p50)
			compP95 = append(compP95, p95)
			// Engine counters are deterministic per rerun (same seed, same
			// jobs), so the last rerun's stats describe them all.
			es := compiled.ExecStats()
			row.BranchLeavesPerShot = es.LeavesPerShot()
			row.DistCacheHits = es.DistCacheHits
		}
		row.NaiveJobsPerSec = telemetry.Median(naiveJPS)
		row.NaiveP50Ms = telemetry.Median(naiveP50)
		row.NaiveP95Ms = telemetry.Median(naiveP95)
		row.CompiledJobsPerSec = telemetry.Median(compJPS)
		row.CompiledP50Ms = telemetry.Median(compP50)
		row.CompiledP95Ms = telemetry.Median(compP95)
		row.Speedup = row.CompiledJobsPerSec / row.NaiveJobsPerSec
		row.SpreadPct = telemetry.SpreadPct(compJPS)
		art.Rows = append(art.Rows, row)
		if w.baseline {
			if w.noisy {
				art.SpeedupNoisy = row.Speedup
			} else {
				art.SpeedupNoiseless = row.Speedup
			}
		}
	}
	return art, nil
}
