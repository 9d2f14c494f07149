package device

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// Gate durations of the transmon QPU, microseconds. The 300 µs passive
// reset dominating shot duration is the figure behind the paper's §2.4
// bandwidth estimate.
const (
	PRXDurationUs     = 0.02 // 20 ns single-qubit gate
	CZDurationUs      = 0.04 // 40 ns two-qubit gate
	ReadoutDurationUs = 1.5
	ResetDurationUs   = 300.0
)

// QPU is the device: a topology plus a live calibration and the drift
// process that ages it. It executes native circuits with calibration-derived
// noise, or noiselessly in digital-twin mode.
type QPU struct {
	mu sync.Mutex

	name  string
	topo  *Topology
	drift *DriftModel
	rng   *rand.Rand
	// seed is the configured seed, the device's half of every job's random
	// stream (engine.go, jobRNG).
	seed uint64

	// twin disables all noise — the emulator used for onboarding (§4).
	twin bool

	// current is the published calibration epoch (epoch.go), replaced under
	// mu by every drift advance and recalibration.
	current atomic.Pointer[Epoch]

	// execLatency is the wall-clock control-electronics round-trip charged
	// per Execute call (waveform upload + trigger + readback). Zero by
	// default so simulations stay instant; the dispatch benchmarks set it to
	// model the latency-bound pipeline the QRM overlaps.
	execLatency time.Duration

	// injectedFaults makes the next N Execute calls fail with a control-
	// electronics error — the fault-injection hook behind fleet failover and
	// outage tests.
	injectedFaults int

	// execStats counts execution-engine activity (engine.go), guarded by mu;
	// the compile-map lookups are counted lock-free beside it.
	execStats                  ExecStats
	compileHits, compileMisses atomic.Uint64
}

// Config configures a QPU.
type Config struct {
	Name       string
	Rows, Cols int
	Seed       int64
	// DigitalTwin makes execution noiseless.
	DigitalTwin bool
}

// New20Q returns the paper's device: a 4x5 square-grid 20-qubit QPU.
func New20Q(seed int64) *QPU {
	q, err := New(Config{Name: "garnet-20", Rows: 4, Cols: 5, Seed: seed})
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	return q
}

// NewTwin20Q returns the noiseless digital twin of the 20-qubit device.
func NewTwin20Q(seed int64) *QPU {
	q, err := New(Config{Name: "garnet-20-twin", Rows: 4, Cols: 5, Seed: seed, DigitalTwin: true})
	if err != nil {
		panic(err)
	}
	return q
}

// New builds a QPU from a config.
func New(cfg Config) (*QPU, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("device: grid %dx%d invalid", cfg.Rows, cfg.Cols)
	}
	if cfg.Rows*cfg.Cols > quantum.MaxQubits {
		return nil, fmt.Errorf("device: %d qubits exceeds simulator limit %d", cfg.Rows*cfg.Cols, quantum.MaxQubits)
	}
	topo := SquareGrid(cfg.Rows, cfg.Cols)
	d := &QPU{
		name:  cfg.Name,
		topo:  topo,
		drift: NewDriftModel(cfg.Seed + 1),
		rng:   rand.New(rand.NewSource(cfg.Seed + 2)),
		seed:  uint64(cfg.Seed),
		twin:  cfg.DigitalTwin,
	}
	d.current.Store(newEpoch(d, 0, NewFreshCalibration(topo, cfg.Seed)))
	return d, nil
}

// Name returns the device name.
func (d *QPU) Name() string { return d.name }

// NumQubits returns the number of physical qubits.
func (d *QPU) NumQubits() int { return d.topo.NumQubits() }

// Topology returns the coupling graph.
func (d *QPU) Topology() *Topology { return d.topo }

// IsTwin reports whether this device is the noiseless digital twin.
func (d *QPU) IsTwin() bool { return d.twin }

// Epoch returns the current calibration epoch: one atomic load. Callers must
// not modify it or anything it holds.
func (d *QPU) Epoch() *Epoch { return d.current.Load() }

// Calibration returns a copy of the live calibration record, the caller's
// to edit.
func (d *QPU) Calibration() *Calibration { return d.Epoch().Calibration.Clone() }

// AdvanceDrift ages the device by dtHours of simulated time.
func (d *QPU) AdvanceDrift(dtHours float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := d.Epoch().Calibration.Clone()
	d.drift.Advance(next, dtHours)
	d.publishLocked(next, 1)
}

// AdvanceDriftHours takes n one-hour drift steps, the ones n calls of
// AdvanceDrift(1) take, on one copy of the calibration, and publishes it
// once, as epoch Num+n: the calibration and the epoch number n such calls
// leave, without building the n-1 epochs between them (each one's noise
// channels), which nothing could read. n <= 0 does nothing.
func (d *QPU) AdvanceDriftHours(n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	next := d.Epoch().Calibration.Clone()
	for i := 0; i < n; i++ {
		d.drift.Advance(next, 1)
	}
	d.publishLocked(next, n)
}

// publishLocked makes calibration c, which nothing else references, the
// epoch steps after the current one: 1 for one change, n for n drift hours
// folded into one publish. Caller holds d.mu, so epochs are numbered in
// publish order.
func (d *QPU) publishLocked(c *Calibration, steps int) {
	d.current.Store(newEpoch(d, d.Epoch().Num+uint64(steps), c))
}

// SetExecLatency sets the wall-clock control-electronics round-trip charged
// per Execute call, slept outside the device lock so concurrent executions
// overlap (the paced mode used by throughput benchmarks and demos).
func (d *QPU) SetExecLatency(lat time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.execLatency = lat
}

// InjectFaults makes the next n Execute calls fail with a simulated
// control-electronics fault (§3.5 outage semantics at the job level). Used
// by failover and error-path tests; n <= 0 clears pending faults.
func (d *QPU) InjectFaults(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	d.injectedFaults = n
}

// Recalibrate runs the quick or full calibration procedure (§3.2) and
// returns its duration in minutes: 40 for quick, 100 for full.
func (d *QPU) Recalibrate(full bool) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := d.Epoch().Calibration.Clone()
	d.drift.Recalibrate(next, d.topo, full, d.rng.Int63())
	d.publishLocked(next, 1)
	if full {
		return 100
	}
	return 40
}

// ActiveTLSCount exposes the number of qubits currently degraded by a TLS
// defect (visible to telemetry).
func (d *QPU) ActiveTLSCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drift.ActiveTLSCount()
}

// Counters returns lifetime executed job and shot counts.
func (d *QPU) Counters() (jobs, shots int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.execStats.BranchTreeJobs), int64(d.execStats.BranchTreeShots)
}

// Result is the outcome of executing a circuit.
type Result struct {
	// Counts histograms measured bitstrings: basis index -> occurrences
	// (the dominant §2.4 output format).
	Counts map[int]int
	// Shots is the number of repetitions executed.
	Shots int
	// DurationUs is the estimated wall-clock time on the control
	// electronics, dominated by the passive reset (§2.4).
	DurationUs float64
}

// validateExecution checks a circuit/shot pair against the device: shot
// count, then validateNative.
func (d *QPU) validateExecution(c *circuit.Circuit, shots int) error {
	if shots < 1 {
		return fmt.Errorf("device: shots must be >= 1, got %d", shots)
	}
	return d.validateNative(c)
}

// validateNative checks gate validity, register fit, native gate set, and CZ
// connectivity (the topology is immutable, so this needs no lock).
func (d *QPU) validateNative(c *circuit.Circuit) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.NumQubits > d.topo.NumQubits() {
		return fmt.Errorf("device: circuit needs %d qubits, device has %d", c.NumQubits, d.topo.NumQubits())
	}
	if !c.IsNative() {
		return fmt.Errorf("device: circuit %q contains non-native gates; transpile first", c.Name)
	}
	for i, g := range c.Gates {
		if g.Name == circuit.OpCZ && !d.topo.Connected(g.Qubits[0], g.Qubits[1]) {
			return fmt.Errorf("device: gate %d: no coupler between qubits %d and %d", i, g.Qubits[0], g.Qubits[1])
		}
	}
	return nil
}

// readoutModel builds the classical confusion model from a calibration
// snapshot.
func readoutModel(calib *Calibration, n int) *quantum.ReadoutModel {
	p10 := make([]float64, n)
	p01 := make([]float64, n)
	for q := 0; q < n; q++ {
		eps := 1 - calib.Qubits[q].FReadout
		// Asymmetric split: |1> readout is worse (relaxation during readout).
		p10[q] = eps * 0.8
		p01[q] = eps * 1.2
	}
	return &quantum.ReadoutModel{P10: p10, P01: p01}
}

// estimateDurationUs estimates total execution time: per shot, the passive
// reset dominates (300 µs), plus gate time and readout.
func estimateDurationUs(c *circuit.Circuit, shots int) float64 {
	gateUs := 0.0
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.OpPRX:
			gateUs += PRXDurationUs
		case circuit.OpCZ:
			gateUs += CZDurationUs
		}
	}
	return float64(shots) * (ResetDurationUs + gateUs + ReadoutDurationUs)
}

// GHZFidelityEstimate executes a transpiled GHZ circuit and returns the
// population-based GHZ fidelity proxy: P(all zeros) + P(all ones). The
// calibration health checks (§3.2) use this as the live benchmark number.
func GHZPopulationFidelity(res *Result, numQubits int) float64 {
	if res.Shots == 0 {
		return 0
	}
	allOnes := (1 << uint(numQubits)) - 1
	good := res.Counts[0] + res.Counts[allOnes]
	return float64(good) / float64(res.Shots)
}
