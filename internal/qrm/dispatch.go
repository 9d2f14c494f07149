package qrm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/qdmi"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/transpile"
)

// Manager is the QRM stage of one device: it runs claimed jobs on the
// device and keeps the device's pipeline metrics. It holds no job state;
// concurrent Run calls share nothing but the metrics and the device.
type Manager struct {
	dev *qdmi.Device

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	queueWait   *telemetry.Histogram // ms from entering the queue to the claim
	compile     *telemetry.Histogram // ms per compile-map miss
	exec        *telemetry.Histogram // ms per device round-trip
	e2e         *telemetry.Histogram // ms from entering the queue to a done result
}

// NewManager builds the QRM stage over a QDMI device handle.
func NewManager(dev *qdmi.Device) *Manager {
	bounds := telemetry.ExponentialBounds(0.01, 2, 24) // 10 µs .. ~84 s
	return &Manager{
		dev:       dev,
		queueWait: mustHistogram(bounds),
		compile:   mustHistogram(bounds),
		exec:      mustHistogram(bounds),
		e2e:       mustHistogram(bounds),
	}
}

func mustHistogram(bounds []float64) *telemetry.Histogram {
	h, err := telemetry.NewHistogram(bounds)
	if err != nil {
		panic(err) // static bounds cannot fail
	}
	return h
}

// Run compiles and executes one claimed job on the device. leg is the
// caller's private record of the attempt, in StatusCompiling; enqueued is
// when the job entered the queue. Run fills in the compile artefacts, marks
// the leg running and calls proceed: when proceed returns false (a cancel
// landed) the leg ends cancelled without the QPU round-trip, otherwise it
// executes and ends done with its counts or failed with its error. The
// compile and execute spans nest under span. The body runs under pprof
// labels (job id, device) so CPU profiles attribute by job.
func (m *Manager) Run(leg *Job, enqueued time.Time, span *trace.Span, proceed func() bool) {
	m.queueWait.Observe(msSince(enqueued))
	labels := pprof.Labels("qrm_job", strconv.Itoa(leg.ID), "device", m.dev.QPU().Name())
	pprof.Do(context.Background(), labels, func(context.Context) {
		m.run(leg, span, proceed)
	})
	if leg.Status == StatusDone {
		m.e2e.Observe(msSince(enqueued))
	}
}

func (m *Manager) run(leg *Job, span *trace.Span, proceed func() bool) {
	placement := transpile.PlaceFidelityAware
	if leg.Request.StaticPlacement {
		placement = transpile.PlaceStatic
	}
	// JIT compile against the device's *current* calibration epoch (Fig. 3
	// loop). One lookup in the epoch's compile map yields both the placement
	// and the engine program, so a repeated circuit (the VQE measurement
	// loop) compiles once per epoch, and a drift tick mid-dispatch cannot
	// place the job on one calibration and simulate it on the next.
	qpu := m.dev.QPU()
	ep := qpu.Epoch()
	compileStart := time.Now()
	compileSpan := span.StartChild("compile")
	cp, hit, err := ep.Prepare(leg.Request.Circuit, placement)
	epoch := trace.Int64("epoch", int64(ep.Num))
	switch {
	case hit:
		compileSpan.End(trace.Str("cache", "hit"), epoch)
	case err != nil:
		compileSpan.End(trace.Str("cache", "miss"), epoch)
	default:
		compileSpan.End(trace.Str("cache", "miss"), epoch, trace.Int("cz", cp.Result().Stats.OutputCZ), trace.Int("swaps", cp.Result().Stats.SwapsInserted))
	}
	if !hit {
		// This worker compiled (successfully or not): a real miss.
		m.cacheMisses.Add(1)
		m.compile.Observe(msSince(compileStart))
	} else if err == nil {
		// Waiters on a failed flight got an error, not a reused result —
		// only successful reuse counts as a hit.
		m.cacheHits.Add(1)
	}
	if err != nil {
		leg.Status, leg.Error = StatusFailed, fmt.Sprintf("compile: %v", err)
		return
	}
	res := cp.Result()
	leg.CompiledGates = res.Stats.OutputGates
	leg.CZCount = res.Stats.OutputCZ
	leg.Layout = res.FinalLayout[:leg.Request.Circuit.NumQubits]
	leg.CompileStats = res.Stats.String()
	leg.Status = StatusRunning
	if !proceed() {
		leg.Status = StatusCancelled
		return
	}

	execStart := time.Now()
	execSpan := span.StartChild("execute",
		trace.Int("shots", leg.Request.Shots), trace.Int("gates", leg.CompiledGates))
	out, err := qpu.Run(trace.ContextWithSpan(context.Background(), execSpan), cp, leg.Request.Shots)
	execSpan.End()
	m.exec.Observe(msSince(execStart))
	if err != nil {
		leg.Status, leg.Error = StatusFailed, fmt.Sprintf("execute: %v", err)
		return
	}
	leg.Status, leg.Counts, leg.DurationUs = StatusDone, out.Counts, out.DurationUs
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// Metrics is a point-in-time snapshot of one device's pipeline: claims and
// their outcomes, compile-map effectiveness, and stage latency histograms
// (milliseconds). CacheHits/CacheMisses count this pipeline's lookups; the
// Sim* compile counters count the device's, which on the dispatch path are
// the same lookups (plus any direct QPU.ExecuteCtx callers). The fleet
// scheduler fills in the worker and outcome counts, which it keeps.
type Metrics struct {
	Workers  int `json:"workers"`
	Inflight int `json:"inflight"`

	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Cancelled   uint64 `json:"cancelled"`
	Expired     uint64 `json:"expired"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	// Execution-engine counters from the device (batch dispatch reuses
	// compiled programs across identical jobs; these show it happening).
	SimCompileHits   uint64 `json:"sim_compile_hits"`
	SimCompileMisses uint64 `json:"sim_compile_misses"`
	SimFastPathJobs  uint64 `json:"sim_fast_path_jobs"`
	// Shot-branching engine counters: jobs routed to the trajectory tree,
	// the shots they carried, the unique leaf states those shots collapsed
	// into (leaves/shots << 1 is the amortization working), and noiseless
	// jobs served from the cached outcome distribution without simulating.
	SimBranchTreeJobs  uint64 `json:"sim_branch_tree_jobs"`
	SimBranchTreeShots uint64 `json:"sim_branch_tree_shots"`
	SimBranchLeaves    uint64 `json:"sim_branch_leaves"`
	SimDistCacheHits   uint64 `json:"sim_dist_cache_hits"`

	QueueWaitMs telemetry.HistogramSnapshot `json:"queue_wait_ms"`
	CompileMs   telemetry.HistogramSnapshot `json:"compile_ms"`
	ExecMs      telemetry.HistogramSnapshot `json:"exec_ms"`
	E2EMs       telemetry.HistogramSnapshot `json:"e2e_ms"`
}

// Metrics returns the pipeline's compile-map, engine and latency figures.
func (m *Manager) Metrics() Metrics {
	es := m.dev.QPU().ExecStats()
	return Metrics{
		CacheHits:          m.cacheHits.Load(),
		CacheMisses:        m.cacheMisses.Load(),
		SimCompileHits:     es.CompileHits,
		SimCompileMisses:   es.CompileMisses,
		SimFastPathJobs:    es.FastPathJobs,
		SimBranchTreeJobs:  es.BranchTreeJobs,
		SimBranchTreeShots: es.BranchTreeShots,
		SimBranchLeaves:    es.BranchLeaves,
		SimDistCacheHits:   es.DistCacheHits,
		QueueWaitMs:        m.queueWait.Snapshot(),
		CompileMs:          m.compile.Snapshot(),
		ExecMs:             m.exec.Snapshot(),
		E2EMs:              m.e2e.Snapshot(),
	}
}

// HitRatio returns the compile-map hit fraction (0 when the map has not been
// exercised).
func (s Metrics) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}
