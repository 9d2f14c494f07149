package fleet

import (
	"fmt"

	"repro/internal/telemetry"
)

// DeviceMetrics is one backend's slice of the fleet snapshot.
type DeviceMetrics struct {
	Name    string      `json:"name"`
	State   DeviceState `json:"state"`
	Qubits  int         `json:"qubits"`
	Workers int         `json:"workers"`

	Inflight int `json:"inflight"`

	Routed      uint64 `json:"routed"`
	MigratedOut uint64 `json:"migrated_out"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`

	MeanF1Q   float64 `json:"fidelity_1q"`
	MeanFCZ   float64 `json:"fidelity_cz"`
	MeanFRead float64 `json:"fidelity_readout"`
	CalibAgeH float64 `json:"calibration_age_h"`

	// ScoreHist buckets the fidelity estimates of jobs routed here.
	ScoreHist telemetry.HistogramSnapshot `json:"score_hist"`
	// QRM is the device's dispatch-pipeline snapshot.
	QRM PipelineMetrics `json:"qrm"`
}

// PipelineMetrics is one device's dispatch pipeline: its workers, what
// became of the jobs they claimed, compile-map effectiveness and the stage
// latency histograms (milliseconds). CacheHits/CacheMisses count the
// workers' compile-map lookups; the Sim* counters are the device engine's,
// which on the dispatch path are the same lookups (plus any direct
// QPU.ExecuteCtx callers).
type PipelineMetrics struct {
	Workers  int `json:"workers"`
	Inflight int `json:"inflight"`

	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Cancelled   uint64 `json:"cancelled"`
	Expired     uint64 `json:"expired"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	// Execution-engine counters: compiled programs reused across identical
	// jobs, noiseless jobs on the fast path, the shot-branching tree (jobs,
	// the shots they carried, the unique leaves those collapsed into —
	// leaves/shots << 1 is the amortization working) and noiseless jobs
	// served from the cached outcome distribution.
	SimCompileHits     uint64 `json:"sim_compile_hits"`
	SimCompileMisses   uint64 `json:"sim_compile_misses"`
	SimFastPathJobs    uint64 `json:"sim_fast_path_jobs"`
	SimBranchTreeJobs  uint64 `json:"sim_branch_tree_jobs"`
	SimBranchTreeShots uint64 `json:"sim_branch_tree_shots"`
	SimBranchLeaves    uint64 `json:"sim_branch_leaves"`
	SimDistCacheHits   uint64 `json:"sim_dist_cache_hits"`

	QueueWaitMs telemetry.HistogramSnapshot `json:"queue_wait_ms"`
	CompileMs   telemetry.HistogramSnapshot `json:"compile_ms"`
	ExecMs      telemetry.HistogramSnapshot `json:"exec_ms"`
	E2EMs       telemetry.HistogramSnapshot `json:"e2e_ms"`
}

// HitRatio returns the compile-map hit fraction (0 when the map has not been
// exercised).
func (m PipelineMetrics) HitRatio() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// Metrics is a point-in-time snapshot of fleet health.
type Metrics struct {
	Policy  Policy          `json:"policy"`
	Devices []DeviceMetrics `json:"devices"`

	// QueueDepth is the number of jobs waiting in the fleet's queue.
	QueueDepth int    `json:"queue_depth"`
	Submitted  uint64 `json:"submitted"`
	Routed     uint64 `json:"routed"`
	Migrated   uint64 `json:"migrated"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Cancelled  uint64 `json:"cancelled"`
	Shed       uint64 `json:"shed"`
	// IllegalTransitions counts moves outside the lifecycle table: a bug if > 0.
	IllegalTransitions uint64 `json:"illegal_transitions,omitempty"`

	// ScoreHist buckets fidelity estimates across all routing decisions.
	ScoreHist telemetry.HistogramSnapshot `json:"score_hist"`
}

// Metrics returns the fleet snapshot.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	out := Metrics{
		Policy:     s.policy,
		QueueDepth: s.queue.Len(),
		Submitted:  s.submitted,
		Routed:     s.routed,
		Migrated:   s.migrated,
		Completed:  s.completed,
		Failed:     s.failures,
		Cancelled:  s.cancelled,
		Shed:       s.shed,

		IllegalTransitions: s.illegal,
	}
	devs := make([]*deviceEntry, 0, len(s.order))
	for _, name := range s.order {
		e := s.devices[name]
		ep := e.dev.QPU().Epoch()
		devs = append(devs, e)
		out.Devices = append(out.Devices, DeviceMetrics{
			Name: e.name, State: e.state,
			Qubits:  e.dev.Properties().NumQubits,
			Workers: e.workers, Inflight: e.inflight,
			Routed: e.routed, MigratedOut: e.migratedOut,
			Completed: e.completed, Failed: e.failed,
			MeanF1Q: ep.MeanF1Q, MeanFCZ: ep.MeanFCZ, MeanFRead: ep.MeanFRead,
			CalibAgeH: ep.Calibration.AgeHours,
			QRM: PipelineMetrics{
				Workers: e.workers, Inflight: e.inflight,
				Completed: e.completed, Failed: e.failed,
				Cancelled: e.cancelled, Expired: e.expired,
			},
		})
	}
	s.mu.Unlock()
	// The histograms, the compile-map counters and the engine's counters
	// are internally synchronized: read them outside the fleet lock.
	out.ScoreHist = s.scoreHist.Snapshot()
	for i, e := range devs {
		d := &out.Devices[i]
		d.ScoreHist = e.scoreHist.Snapshot()
		es := e.dev.QPU().ExecStats()
		q := &d.QRM
		q.CacheHits, q.CacheMisses = e.cacheHits.Load(), e.cacheMisses.Load()
		q.SimCompileHits, q.SimCompileMisses, q.SimFastPathJobs = es.CompileHits, es.CompileMisses, es.FastPathJobs
		q.SimBranchTreeJobs, q.SimBranchTreeShots, q.SimBranchLeaves = es.BranchTreeJobs, es.BranchTreeShots, es.BranchLeaves
		q.SimDistCacheHits = es.DistCacheHits
		q.QueueWaitMs, q.CompileMs = e.queueWait.Snapshot(), e.compile.Snapshot()
		q.ExecMs, q.E2EMs = e.exec.Snapshot(), e.e2e.Snapshot()
	}
	return out
}

// Gauges flattens the snapshot into telemetry sensors: fleet totals plus
// per-device series (counters, mean fidelity, pipeline health).
func (m Metrics) Gauges() map[string]float64 {
	out := map[string]float64{
		"fleet_devices":     float64(len(m.Devices)),
		"fleet_queue_depth": float64(m.QueueDepth),
		"fleet_routed":      float64(m.Routed),
		"fleet_migrated":    float64(m.Migrated),
		"fleet_completed":   float64(m.Completed),
		"fleet_failed":      float64(m.Failed),
		"fleet_shed":        float64(m.Shed),
		"fleet_score_p50":   m.ScoreHist.Quantile(0.50),
	}
	for _, d := range m.Devices {
		p := "fleet_" + d.Name + "_"
		out[p+"inflight"] = float64(d.Inflight)
		out[p+"routed"] = float64(d.Routed)
		out[p+"migrated_out"] = float64(d.MigratedOut)
		out[p+"completed"] = float64(d.Completed)
		out[p+"failed"] = float64(d.Failed)
		out[p+"fidelity_1q"] = d.MeanF1Q
		out[p+"fidelity_cz"] = d.MeanFCZ
		out[p+"cache_hit_ratio"] = d.QRM.HitRatio()
		out[p+"e2e_p95_ms"] = d.QRM.E2EMs.Quantile(0.95)
		active := 0.0
		if d.State == DeviceActive {
			active = 1
		}
		out[p+"active"] = active
	}
	return out
}

// PublishMetrics appends the fleet gauges to a telemetry store at simulation
// time t (the DCDB integration for the fleet layer). With a store attached
// at New, callers may pass nil to use it.
func (s *Scheduler) PublishMetrics(store *telemetry.Store, t float64) {
	if store == nil {
		store = s.store
	}
	if store == nil {
		return
	}
	for sensor, v := range s.Metrics().Gauges() {
		store.Append(sensor, t, v)
	}
}

// CollectorName implements telemetry.Collector: the fleet doubles as a DCDB
// plugin so a poller picks its gauges up with the rest of the center.
func (s *Scheduler) CollectorName() string { return "fleet" }

// Collect implements telemetry.Collector.
func (s *Scheduler) Collect() map[string]float64 { return s.Metrics().Gauges() }

var _ telemetry.Collector = (*Scheduler)(nil)

// StateOf returns a device's current lifecycle state.
func (s *Scheduler) StateOf(name string) (DeviceState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return "", fmt.Errorf("fleet: unknown device %q", name)
	}
	return e.state, nil
}
