package device

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/telemetry"
)

// This file is the execution-engine bench harness behind BENCH_sim.json:
// it runs the same job stream through the naive per-shot loop
// (ExecuteNaive, the pre-engine baseline) and the compiled engine
// (Execute), and reports before/after jobs/s plus compiled-path latency
// quantiles, for the -sim.bench artifact test (the CI smoke gate).

// NativeRandom45 builds a pseudo-random native circuit over the first n
// snake qubits of the 4x5 grid: layers of RZ+PRX rotations on every qubit
// followed by CZ brickwork along the snake path. Deterministic in seed. At
// n = 16 it is the bench's widest register: every pass runs inline over
// 2^16 amplitudes, and only the branch tree's helper puts a second core on
// the job.
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
	// compiled runs: unique trajectory leaves per shot (1/shots on a
	// noiseless row, whose every job is one leaf).
	BranchLeavesPerShot float64 `json:"branch_leaves_per_shot,omitempty"`
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
// where the gate kernels and the shot-branching tree are measured at sizes
// that exercise them. It returns the artifact record.
func RunSimBench(cfg SimBenchConfig) (*SimBenchArtifact, error) {
	cfg.fill()
	wideJobs := cfg.NoisyJobs / 3
	if wideJobs < 1 {
		wideJobs = 1
	}
	// The 16-qubit row, the widest serial row, exists to exercise the
	// kernels on a large state inside the branch tree, not to soak: the
	// naive baseline costs ~300 ms *per shot* there, so the row runs one job
	// at an eighth of the shots.
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

// --- E15/E16: compiled-circuit execution engine vs the naive shot loop. ---
//
// BenchmarkExecuteCompiled* time Execute (compile-once, pooled states, the
// shot-branching trajectory tree every job rides); the *Naive variants time
// the retained reference loop so the BENCH_sim.json speedups are
// reproducible from the benchmark table alone.

func benchmarkExecute(b *testing.B, qpu *QPU, naive bool, shots int) {
	b.Helper()
	ghz := NativeGHZLine(5)
	exec := qpu.Execute
	if naive {
		exec = qpu.ExecuteNaive
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec(ghz, shots); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}

func BenchmarkExecuteCompiled(b *testing.B)      { benchmarkExecute(b, NewTwin20Q(40), false, 200) }
func BenchmarkExecuteNaive(b *testing.B)         { benchmarkExecute(b, NewTwin20Q(40), true, 200) }
func BenchmarkExecuteCompiledNoisy(b *testing.B) { benchmarkExecute(b, New20Q(41), false, 200) }
func BenchmarkExecuteNaiveNoisy(b *testing.B)    { benchmarkExecute(b, New20Q(41), true, 200) }
