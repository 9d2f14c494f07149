package mqss

// The unified observability plane (docs/OBSERVABILITY.md): a Prometheus
// text exposition at GET /metrics unifying qrm/fleet/engine counters with
// per-stage latency histograms, the per-job span-tree endpoint at
// GET /api/v2/jobs/{id}/trace, and the X-Request-ID middleware that lets
// client-side errors correlate to server traces.

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// pathMetricsProm is the Prometheus-style scrape endpoint. The JSON
// snapshot stays at /api/v1/metrics; this is the text exposition.
const pathMetricsProm = "/metrics"

// Request-ID plumbing. Every v2 response carries an X-Request-ID header —
// the client's, when it sent one, or a generated id — and submissions
// stamp it into the job's trace root span.

var (
	ridCounter atomic.Uint64
	// ridBase distinguishes ids across server processes without needing a
	// random source on the request path.
	ridBase = fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff)
)

// withRequestID wraps a v2 handler: it ensures a request id exists and sets
// it on the response header before the handler runs, where v2Submit reads
// it back for trace stamping.
func withRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = "req-" + ridBase + "-" + strconv.FormatUint(ridCounter.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", rid)
		h(w, r)
	}
}

// JobTrace is the GET /api/v2/jobs/{id}/trace resource: the job identity
// plus its span tree.
type JobTrace struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	trace.Snapshot
}

// v2Trace: GET /api/v2/jobs/{id}/trace — the job's span tree. Traces are
// retained for the last N terminal jobs (plus every job still in flight);
// older jobs 404 with the job record intact.
func (s *Server) v2Trace(w http.ResponseWriter, r *http.Request, id int) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed", r.Method), false)
		return
	}
	st, _, _, err := s.fleet.Peek(id)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	snap := s.fleet.Trace(id).Snapshot()
	if snap == nil {
		writeV2Error(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no trace retained for job %s (tracing off, or evicted from the retention ring)", FormatJobID(id)), false)
		return
	}
	writeJSON(w, http.StatusOK, &JobTrace{JobID: FormatJobID(id), State: st, Snapshot: *snap})
}

// handleMetricsProm: GET /metrics — the text exposition. Metric families
// and their meanings are documented in docs/OBSERVABILITY.md; the CI
// metrics-doc test fails when the two drift apart.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		v1MethodNotAllowed(w, r.Method)
		return
	}
	pw := telemetry.NewPromWriter()
	fm := s.fleet.Metrics()
	pw.Counter("qhpc_fleet_jobs_submitted_total", "Jobs accepted by the fleet scheduler.", nil, float64(fm.Submitted))
	pw.Counter("qhpc_fleet_jobs_routed_total", "Claims: a device took a queued job.", nil, float64(fm.Routed))
	pw.Counter("qhpc_fleet_jobs_migrated_total", "Failover re-queues: runs that failed on a failed device.", nil, float64(fm.Migrated))
	pw.Counter("qhpc_fleet_jobs_completed_total", "Fleet jobs settled done.", nil, float64(fm.Completed))
	pw.Counter("qhpc_fleet_jobs_failed_total", "Fleet jobs settled failed.", nil, float64(fm.Failed))
	pw.Counter("qhpc_fleet_jobs_cancelled_total", "Fleet jobs settled cancelled.", nil, float64(fm.Cancelled))
	pw.Gauge("qhpc_qrm_queue_depth", "Jobs waiting in the fleet's queue.", nil, float64(fm.QueueDepth))
	pw.Counter("qhpc_qrm_jobs_shed_total", "Jobs evicted by admission control (queue over bounds).", nil, float64(fm.Shed))
	pw.Counter("qhpc_fleet_illegal_transitions_total", "Job lifecycle moves taken that the transition table does not list (a bug if nonzero).", nil, float64(fm.IllegalTransitions))
	pw.Histogram("qhpc_fleet_route_score", "Fidelity estimate of each routing decision.", nil, fm.ScoreHist)
	promBus(pw, s.fleet.EventStats())
	retained, drops := s.fleet.TraceStats()
	promTraces(pw, retained, drops)
	promRetention(pw, s.fleet.Retained())
	promRuntime(pw)
	for _, d := range fm.Devices {
		labels := telemetry.Labels{{"device", d.Name}}
		pw.Gauge("qhpc_device_active", "1 when the device claims queued work.", labels, boolGauge(d.State == "active"))
		pw.Counter("qhpc_device_jobs_routed_total", "Jobs this device claimed.", labels, float64(d.Routed))
		pw.Counter("qhpc_device_jobs_migrated_out_total", "Jobs re-queued after their run failed on this device while it was failed.", labels, float64(d.MigratedOut))
		pw.Gauge("qhpc_device_fidelity_1q", "Mean single-qubit gate fidelity (live calibration).", labels, d.MeanF1Q)
		pw.Gauge("qhpc_device_fidelity_cz", "Mean CZ gate fidelity (live calibration).", labels, d.MeanFCZ)
		promQRM(pw, d.Name, d.QRM)
	}
	promTenants(pw, s.tenantsStatus(), s.limiter != nil)
	if s.store != nil {
		promStore(pw, s.store.Stats(), s.fleet.Restored())
	}
	if s.fed != nil {
		promFed(pw, s.fed.Self(), s.fed.Metrics())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = pw.WriteTo(w)
}

// promStore renders durable-store health (only on servers with -data-dir).
func promStore(pw *telemetry.PromWriter, st durable.Stats, restored fleet.RestoreStats) {
	l := telemetry.Labels{{"mode", string(st.Mode)}}
	pw.Counter("qhpc_wal_appends_total", "Records appended to the job WAL.", l, float64(st.Appends))
	pw.Counter("qhpc_wal_fsyncs_total", "fsync calls issued by the WAL.", l, float64(st.Fsyncs))
	pw.Counter("qhpc_wal_bytes_written_total", "Journal bytes written since process start.", l, float64(st.Bytes))
	pw.Gauge("qhpc_wal_segments", "Journal segment files on disk.", l, float64(st.Segments))
	pw.Gauge("qhpc_wal_disk_bytes", "Journal plus snapshot bytes on disk.", l, float64(st.WALBytes))
	pw.Gauge("qhpc_wal_last_lsn", "LSN of the most recently appended record.", l, float64(st.LastLSN))
	pw.Gauge("qhpc_wal_durable_lsn", "Highest LSN known to be on stable storage.", l, float64(st.Durable))
	pw.Gauge("qhpc_wal_snapshot_lsn", "LSN covered by the last compaction snapshot.", l, float64(st.SnapshotLSN))
	pw.Counter("qhpc_wal_compactions_total", "Snapshot compactions completed.", l, float64(st.Compactions))
	pw.Gauge("qhpc_wal_replay_duration_ms", "Startup snapshot+WAL replay time in milliseconds.", l, st.Replay.DurationMs)
	pw.Gauge("qhpc_wal_replay_skipped_bytes", "Torn/corrupt tail bytes ignored during startup replay.", l, float64(st.Replay.SkippedBytes))
	rl := func(outcome string) telemetry.Labels {
		return telemetry.Labels{{"mode", string(st.Mode)}, {"outcome", outcome}}
	}
	pw.Counter("qhpc_wal_recovered_jobs_total", "Jobs recovered at startup by disposition (outcome: terminal, requeued, expired).", rl("terminal"), float64(restored.Terminal))
	pw.Counter("qhpc_wal_recovered_jobs_total", "", rl("requeued"), float64(restored.Requeued))
	pw.Counter("qhpc_wal_recovered_jobs_total", "", rl("expired"), float64(restored.Expired))
}

// promFed renders the federation plane (only on servers that joined a
// federation via AttachFederation); node labels every family with this
// member's ID.
func promFed(pw *telemetry.PromWriter, node string, m federation.Metrics) {
	l := telemetry.Labels{{"node", node}}
	pw.Gauge("qhpc_fed_peers_alive", "Federation members currently considered alive (self included).", l, float64(m.PeersAlive))
	pw.Gauge("qhpc_fed_peers_dead", "Federation members currently considered dead by heartbeat.", l, float64(m.PeersDead))
	pw.Counter("qhpc_fed_heartbeats_sent_total", "Heartbeats sent to peers.", l, float64(m.HeartbeatsSent))
	pw.Counter("qhpc_fed_heartbeats_failed_total", "Heartbeats that failed to reach a peer.", l, float64(m.HeartbeatsFailed))
	pw.Counter("qhpc_fed_forwarded_submits_total", "Submissions forwarded to their hash-owner node.", l, float64(m.ForwardedSubmits))
	pw.Counter("qhpc_fed_proxied_reads_total", "Unary job requests (GET/DELETE/trace) proxied to the owner node.", l, float64(m.ProxiedReads))
	pw.Counter("qhpc_fed_proxied_streams_total", "Watch streams proxied to the owner node.", l, float64(m.ProxiedStreams))
	pw.Counter("qhpc_fed_proxy_errors_total", "Proxy attempts refused or failed (dead owner, network error, directory inconsistency).", l, float64(m.ProxyErrors))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promQRM renders one device's dispatch-pipeline snapshot under a device
// label.
func promQRM(pw *telemetry.PromWriter, device string, m fleet.PipelineMetrics) {
	l := telemetry.Labels{{"device", device}}
	pw.Counter("qhpc_qrm_jobs_completed_total", "Jobs finished done.", l, float64(m.Completed))
	pw.Counter("qhpc_qrm_jobs_failed_total", "Jobs finished failed (includes expired).", l, float64(m.Failed))
	pw.Counter("qhpc_qrm_jobs_cancelled_total", "Jobs cancelled while a worker held them.", l, float64(m.Cancelled))
	pw.Counter("qhpc_qrm_jobs_expired_total", "Jobs whose dispatch deadline passed in the queue, failed at this device's claim.", l, float64(m.Expired))
	pw.Gauge("qhpc_qrm_inflight", "Jobs currently held by dispatch workers.", l, float64(m.Inflight))
	pw.Gauge("qhpc_qrm_workers", "Dispatch workers configured.", l, float64(m.Workers))
	pw.Counter("qhpc_transpile_cache_hits_total", "Transpile-cache hits.", l, float64(m.CacheHits))
	pw.Counter("qhpc_transpile_cache_misses_total", "Transpile-cache misses.", l, float64(m.CacheMisses))
	pw.Counter("qhpc_engine_compile_hits_total", "Compiled-program cache hits in the execution engine.", l, float64(m.SimCompileHits))
	pw.Counter("qhpc_engine_compile_misses_total", "Compiled-program cache misses in the execution engine.", l, float64(m.SimCompileMisses))
	pw.Counter("qhpc_engine_branch_tree_jobs_total", "Jobs executed on the shot-branching tree: every job.", l, float64(m.SimBranchTreeJobs))
	pw.Counter("qhpc_engine_branch_leaves_total", "Unique leaf states across branch-tree jobs.", l, float64(m.SimBranchLeaves))
	stage := func(st string, h telemetry.HistogramSnapshot) {
		pw.Histogram("qhpc_stage_latency_ms",
			"Per-stage job latency in milliseconds (stage: queue-wait, compile, execute, e2e).",
			telemetry.Labels{{"device", device}, {"stage", st}}, h)
	}
	stage("queue-wait", m.QueueWaitMs)
	stage("compile", m.CompileMs)
	stage("execute", m.ExecMs)
	stage("e2e", m.E2EMs)
}

// promTenants renders the multi-tenant admission plane: per-tenant queue
// accounting for every user ever seen, plus token-bucket counters when a
// limiter is attached. Families appear once the first tenant submits.
func promTenants(pw *telemetry.PromWriter, ts TenantsStatus, limited bool) {
	for _, row := range ts.Tenants {
		l := telemetry.Labels{{"tenant", row.User}}
		pw.Counter("qhpc_tenant_jobs_submitted_total", "Jobs accepted into the queue, by submitting tenant.", l, float64(row.Submitted))
		pw.Counter("qhpc_tenant_jobs_completed_total", "Jobs finished done, by tenant.", l, float64(row.Completed))
		pw.Counter("qhpc_tenant_jobs_failed_total", "Jobs finished failed (excluding shed), by tenant.", l, float64(row.Failed))
		pw.Counter("qhpc_tenant_jobs_cancelled_total", "Jobs cancelled, by tenant.", l, float64(row.Cancelled))
		pw.Counter("qhpc_tenant_jobs_interrupted_total", "Jobs whose dispatch deadline passed while the server was down, by tenant.", l, float64(row.Interrupted))
		pw.Counter("qhpc_tenant_jobs_shed_total", "Jobs evicted by admission control, by tenant.", l, float64(row.Shed))
		pw.Gauge("qhpc_tenant_queue_depth", "Jobs currently queued, by tenant.", l, float64(row.Queued))
		if limited {
			pw.Counter("qhpc_tenant_submits_allowed_total", "Submissions that passed the token-bucket rate limiter, by tenant.", l, float64(row.Allowed))
			pw.Counter("qhpc_tenant_submits_throttled_total", "Submissions rejected 429 by the token-bucket rate limiter, by tenant.", l, float64(row.Throttled))
		}
	}
}

// promBus renders the health of the fleet's job event delivery, under the
// qhpc_bus_ family names the benchmark and dashboards read.
func promBus(pw *telemetry.PromWriter, st fleet.EventStats) {
	l := telemetry.Labels{{"bus", "fleet"}}
	pw.Counter("qhpc_bus_events_published_total", "Job lifecycle events published.", l, float64(st.Published))
	pw.Counter("qhpc_bus_events_dropped_total", "Event deliveries dropped on full watcher buffers (summed across watches, including closed ones).", l, float64(st.DroppedTotal))
	pw.Gauge("qhpc_bus_subscribers", "Open job watches.", l, float64(st.Watches))
}

// promTraces renders the health of the scheduler's trace-retention ring.
func promTraces(pw *telemetry.PromWriter, retained int, spanDrops uint64) {
	l := telemetry.Labels{{"scope", "fleet"}}
	pw.Gauge("qhpc_traces_retained", "Terminal-job traces currently held in the retention ring.", l, float64(retained))
	pw.Counter("qhpc_trace_spans_dropped_total", "Spans lost to per-job slab exhaustion, summed at terminal.", l, float64(spanDrops))
}

// promRetention renders what the scheduler holds: its live jobs by stored
// status (queued or routed: a live job is never terminal), its sealed
// jobs, kept as records, with the records' bytes, the bytes of the job
// index, and the fill of its Idempotency-Key window.
func promRetention(pw *telemetry.PromWriter, r fleet.Retention) {
	help := "Jobs the scheduler holds, by state: a live job's stored status, or sealed (a terminal job kept as its record)."
	for _, st := range []fleet.JobStatus{fleet.JobQueued, fleet.JobRouted} {
		pw.Gauge("qhpc_jobs_retained", help, telemetry.Labels{{"state", string(st)}}, float64(r.Live[st]))
		help = ""
	}
	pw.Gauge("qhpc_jobs_retained", "", telemetry.Labels{{"state", "sealed"}}, float64(r.Sealed))
	pw.Gauge("qhpc_job_records_bytes", "Bytes of the sealed jobs' records.", nil, float64(r.RecordBytes))
	pw.Gauge("qhpc_job_index_bytes", "Bytes of the job index's entries, one per job held, live or sealed.", nil, float64(r.IndexBytes))
	pw.Gauge("qhpc_idempotency_keys_retained", "Idempotency-Keys bound in the scheduler's dedup window: the newest keyed jobs, at most 1024.", nil, float64(r.IdemKeys))
}

// runtimeFamilies are the Go runtime's own figures /metrics exports, read
// from runtime/metrics at scrape time.
var runtimeFamilies = []struct {
	sample, name, help string
	counter            bool
}{
	{"/gc/heap/live:bytes", "qhpc_go_heap_live_bytes", "Heap bytes the last GC marked live.", false},
	{"/gc/scan/heap:bytes", "qhpc_go_gc_scan_heap_bytes", "Scannable heap bytes as of the last GC: the heap every cycle marks.", false},
	{"/cpu/classes/gc/total:cpu-seconds", "qhpc_go_gc_cpu_seconds_total", "CPU time the runtime estimates it spent on GC.", true},
	{"/gc/cycles/total:gc-cycles", "qhpc_go_gc_cycles_total", "Completed GC cycles.", true},
	{"/sched/goroutines:goroutines", "qhpc_go_goroutines", "Live goroutines.", false},
}

// promRuntime renders runtimeFamilies; a sample this runtime does not have
// is left out.
func promRuntime(pw *telemetry.PromWriter) {
	samples := make([]metrics.Sample, len(runtimeFamilies))
	for i, f := range runtimeFamilies {
		samples[i].Name = f.sample
	}
	metrics.Read(samples)
	for i, f := range runtimeFamilies {
		var v float64
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			v = samples[i].Value.Float64()
		default:
			continue
		}
		if f.counter {
			pw.Counter(f.name, f.help, nil, v)
		} else {
			pw.Gauge(f.name, f.help, nil, v)
		}
	}
}
