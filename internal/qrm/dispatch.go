package qrm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/transpile"
)

// This file is the dispatch pipeline: a worker pool that overlaps JIT
// compilation and QPU round-trips for independent jobs. Workers claim the
// next job under weighted-fair queueing, compile it through the device's
// current calibration epoch (device.Epoch.Prepare), execute, and release the
// handle's waiters. An epoch never changes once published, so the pipeline
// needs no global serialization.

// Start launches nWorkers dispatch workers. It is an error to start an
// already-running pipeline.
func (m *Manager) Start(nWorkers int) error {
	if nWorkers < 1 {
		return fmt.Errorf("qrm: worker count must be >= 1, got %d", nWorkers)
	}
	m.mu.Lock()
	if m.workers > 0 {
		m.mu.Unlock()
		return fmt.Errorf("qrm: pipeline already running with %d workers", m.workers)
	}
	m.stopping = false
	m.workers = nWorkers
	m.stopCh = make(chan struct{})
	// Register the workers before m.workers becomes visible to Stop: a
	// concurrent Stop must not wg.Wait on a zero counter and declare the
	// pool gone while the goroutines below are still being spawned.
	m.wg.Add(nWorkers)
	m.mu.Unlock()
	for i := 0; i < nWorkers; i++ {
		go m.workerLoop()
	}
	return nil
}

// Stop shuts the worker pool down, waiting for in-flight jobs to complete.
// Queued jobs remain queued and survive a later Start. Stop on a stopped
// manager is a no-op, and concurrent Stops are safe: one caller performs
// the shutdown while the others wait for it to finish.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.workers == 0 {
		m.mu.Unlock()
		return
	}
	if m.stopping {
		// Another Stop owns the shutdown; wait for that specific generation
		// to finish. Waiting on workers==0 instead would latch onto a
		// pipeline a concurrent Start spins up after the shutdown.
		stopCh := m.stopCh
		for m.stopCh == stopCh {
			m.cond.Wait()
		}
		m.mu.Unlock()
		return
	}
	m.stopping = true
	m.cond.Broadcast()
	stopCh := m.stopCh
	m.mu.Unlock()
	m.wg.Wait() // in-flight jobs finish first, so their waiters get results
	close(stopCh)
	m.mu.Lock()
	m.workers = 0
	m.stopping = false
	m.stopCh = nil // marks this shutdown generation complete
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Load returns the queue depth and in-flight count in one lock acquisition —
// the cheap load signal fleet routing reads per decision (Metrics would
// snapshot four histograms per call).
func (m *Manager) Load() (queued, inflight int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.Len(), m.inflight
}

// workerLoop is one dispatch worker: claim, compile, execute, repeat.
func (m *Manager) workerLoop() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.stopping && (!m.online || m.queue.Len() == 0) {
			m.cond.Wait()
		}
		if m.stopping {
			m.mu.Unlock()
			return
		}
		j := m.claimLocked()
		if j == nil {
			// Every queued job expired at the claim gate; park again.
			m.mu.Unlock()
			continue
		}
		m.inflight++
		m.mu.Unlock()

		m.dispatchOne(j)

		m.mu.Lock()
		m.inflight--
		m.mu.Unlock()
	}
}

// dispatchOne compiles and executes one claimed job; the job is already off
// the queue in StatusCompiling. The body runs under pprof labels (job id,
// device) so CPU profiles of the dispatch pipeline attribute by job.
func (m *Manager) dispatchOne(j *Job) {
	labels := pprof.Labels(
		"qrm_job", strconv.Itoa(j.ID),
		"device", m.dev.QPU().Name(),
	)
	pprof.Do(context.Background(), labels, func(context.Context) {
		m.dispatchOneLabeled(j)
	})
}

func (m *Manager) dispatchOneLabeled(j *Job) {
	placement := transpile.PlaceFidelityAware
	if j.Request.StaticPlacement {
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
	compileSpan := j.span.StartChild("compile")
	cp, hit, err := ep.Prepare(j.Request.Circuit, placement)
	epoch := trace.Int64("epoch", int64(ep.Num))
	if hit {
		compileSpan.End(trace.Str("cache", "hit"), epoch)
	} else if err != nil {
		compileSpan.End(trace.Str("cache", "miss"), epoch)
	} else {
		compileSpan.End(trace.Str("cache", "miss"), epoch, trace.Int("cz", cp.Result().Stats.OutputCZ), trace.Int("swaps", cp.Result().Stats.SwapsInserted))
	}
	m.mu.Lock()
	if !hit {
		// This worker compiled (successfully or not): a real miss.
		m.metrics.cacheMisses++
		m.metrics.compile.Observe(float64(time.Since(compileStart).Microseconds()) / 1000)
	} else if err == nil {
		// Waiters on a failed flight got an error, not a reused result —
		// only successful reuse counts as a hit.
		m.metrics.cacheHits++
	}
	m.mu.Unlock()
	if err != nil {
		m.finish(j, nil, 0, fmt.Errorf("compile: %w", err))
		return
	}
	res := cp.Result()
	m.mu.Lock()
	j.CompiledGates = res.Stats.OutputGates
	j.CZCount = res.Stats.OutputCZ
	j.Layout = res.FinalLayout[:j.Request.Circuit.NumQubits]
	j.CompileStats = res.Stats.String()
	if j.cancelReq {
		// Cancel requested while compiling: honor it before the QPU
		// round-trip (finish also checks, but skipping execution here saves
		// the device work entirely).
		m.terminateLocked(j, StatusCancelled)
		m.metrics.cancelled++
		m.mu.Unlock()
		return
	}
	j.Status = StatusRunning
	m.mu.Unlock()

	execStart := time.Now()
	execSpan := j.span.StartChild("execute",
		trace.Int("shots", j.Request.Shots), trace.Int("gates", j.CompiledGates))
	execCtx := trace.ContextWithSpan(context.Background(), execSpan)
	out, err := qpu.Run(execCtx, cp, j.Request.Shots)
	execSpan.End()
	execMs := float64(time.Since(execStart).Microseconds()) / 1000
	m.mu.Lock()
	m.metrics.exec.Observe(execMs)
	m.mu.Unlock()
	if err != nil {
		m.finish(j, nil, 0, fmt.Errorf("execute: %w", err))
		return
	}
	m.finish(j, out.Counts, out.DurationUs, nil)
}

// metrics is the pipeline's internal instrumentation. Counters are guarded
// by Manager.mu; histograms are internally synchronized.
type metrics struct {
	submitted   uint64
	completed   uint64
	failed      uint64
	cancelled   uint64
	interrupted uint64
	expired     uint64 // deadline passed before a worker claimed the job
	shed        uint64 // evicted by admission control (queue over bounds)
	cacheHits   uint64
	cacheMisses uint64

	maxQueueDepth int

	queueWait *telemetry.Histogram // ms from submit to claim
	compile   *telemetry.Histogram // ms per cache-miss compilation
	exec      *telemetry.Histogram // ms per device round-trip
	e2e       *telemetry.Histogram // ms from submit to terminal
}

func (mt *metrics) init() {
	bounds := telemetry.ExponentialBounds(0.01, 2, 24) // 10 µs .. ~84 s
	mt.queueWait = mustHistogram(bounds)
	mt.compile = mustHistogram(bounds)
	mt.exec = mustHistogram(bounds)
	mt.e2e = mustHistogram(bounds)
}

func mustHistogram(bounds []float64) *telemetry.Histogram {
	h, err := telemetry.NewHistogram(bounds)
	if err != nil {
		panic(err) // static bounds cannot fail
	}
	return h
}

func (mt *metrics) observeQueueDepth(depth int) {
	if depth > mt.maxQueueDepth {
		mt.maxQueueDepth = depth
	}
}

// Metrics is a point-in-time snapshot of pipeline health: queue state,
// outcome counters, compile-map effectiveness, and stage latency histograms
// (milliseconds). CacheHits/CacheMisses count this pipeline's lookups; the
// Sim* compile counters count the device's, which on the dispatch path are
// the same lookups (plus any direct QPU.ExecuteCtx callers).
type Metrics struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`

	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	Interrupted   uint64 `json:"interrupted"`
	Expired       uint64 `json:"expired"`
	Shed          uint64 `json:"shed"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	MaxQueueDepth int    `json:"max_queue_depth"`

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

// Metrics returns a snapshot of the pipeline instrumentation.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	out := Metrics{
		Workers:       m.workers,
		QueueDepth:    m.queue.Len(),
		Inflight:      m.inflight,
		Submitted:     m.metrics.submitted,
		Completed:     m.metrics.completed,
		Failed:        m.metrics.failed,
		Cancelled:     m.metrics.cancelled,
		Interrupted:   m.metrics.interrupted,
		Expired:       m.metrics.expired,
		Shed:          m.metrics.shed,
		CacheHits:     m.metrics.cacheHits,
		CacheMisses:   m.metrics.cacheMisses,
		MaxQueueDepth: m.metrics.maxQueueDepth,
	}
	m.mu.Unlock()
	es := m.dev.QPU().ExecStats()
	out.SimCompileHits = es.CompileHits
	out.SimCompileMisses = es.CompileMisses
	out.SimFastPathJobs = es.FastPathJobs
	out.SimBranchTreeJobs = es.BranchTreeJobs
	out.SimBranchTreeShots = es.BranchTreeShots
	out.SimBranchLeaves = es.BranchLeaves
	out.SimDistCacheHits = es.DistCacheHits
	out.QueueWaitMs = m.metrics.queueWait.Snapshot()
	out.CompileMs = m.metrics.compile.Snapshot()
	out.ExecMs = m.metrics.exec.Snapshot()
	out.E2EMs = m.metrics.e2e.Snapshot()
	return out
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

// Gauges flattens the snapshot into the telemetry sensor set for the
// dispatch pipeline — the single definition shared by PublishMetrics and
// DCDB collector plugins (internal/core registers one).
func (s Metrics) Gauges() map[string]float64 {
	return map[string]float64{
		"qrm_queue_depth":         float64(s.QueueDepth),
		"qrm_inflight":            float64(s.Inflight),
		"qrm_completed":           float64(s.Completed),
		"qrm_cache_hit_ratio":     s.HitRatio(),
		"qrm_e2e_p95_ms":          s.E2EMs.Quantile(0.95),
		"qrm_sim_fastpath":        float64(s.SimFastPathJobs),
		"qrm_sim_branch_jobs":     float64(s.SimBranchTreeJobs),
		"qrm_sim_leaves_per_shot": s.BranchLeavesPerShot(),
		"qrm_sim_dist_cache_hits": float64(s.SimDistCacheHits),
	}
}

// BranchLeavesPerShot is the shot-branching amortization ratio: unique leaf
// states per trajectory shot (0 when the tree has not run).
func (s Metrics) BranchLeavesPerShot() float64 {
	if s.SimBranchTreeShots == 0 {
		return 0
	}
	return float64(s.SimBranchLeaves) / float64(s.SimBranchTreeShots)
}

// PublishMetrics appends the pipeline gauges to a telemetry store at
// simulation time t — the DCDB integration for the dispatch pipeline
// (queue depth, in-flight count, cache hit ratio, p95 end-to-end latency).
func (m *Manager) PublishMetrics(store *telemetry.Store, t float64) {
	if store == nil {
		return
	}
	for sensor, v := range m.Metrics().Gauges() {
		store.Append(sensor, t, v)
	}
}
