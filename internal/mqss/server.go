// Package mqss reproduces the Munich Quantum Software Stack architecture of
// Fig. 2: a client submits circuits from inside or outside the HPC
// environment — in-process for tightly-coupled accelerator-style loops
// (VQE), over REST for remote asynchronous access — and both reach the
// same Server, whose one handler decodes, admits and routes every job into
// the fleet scheduler. Its devices claim each job when the policy
// (calibration-aware) names them, so work flows around maintenance windows
// and device faults; a single-QPU deployment is a one-device fleet.
package mqss

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/tenant"
)

// API paths. The v1 routes that remain are read-only; jobs live under
// /api/v2/jobs only (pathV2Jobs), and the old v1 job paths answer 410.
const (
	pathV1JobsGone = "/api/v1/jobs"
	pathDevice     = "/api/v1/device"
	pathFleet      = "/api/v1/fleet"
	pathMetrics    = "/api/v1/metrics"
	pathHealthz    = "/healthz"
)

// Server exposes the stack over HTTP — the REST access mode of Fig. 2. It
// fronts one fleet scheduler: a submission's `device` pins a backend, its
// `policy` steers routing, and GET /api/v1/fleet shows the roster.
type Server struct {
	fleet *fleet.Scheduler
	mux   *http.ServeMux

	// closing is closed by Close; active v2 watch streams end on it so a
	// graceful http.Server.Shutdown can drain their handlers.
	closing   chan struct{}
	closeOnce sync.Once
	// limiter is the per-tenant token-bucket admission gate in front of v2
	// submission (nil = unlimited, the default). Refusals answer 429 with
	// Retry-After and the retryable rate_limited envelope.
	limiter *tenant.Limiter
	// store is the durable job store attached via AttachStore (nil =
	// in-memory only); it backs /api/v2/admin/store and the qhpc_wal_*
	// metric families.
	store *durable.Store
	// fed is the federation membership attached via AttachFederation
	// (nil = standalone). fedClient carries proxied requests to owner
	// nodes; it has no global timeout because watch streams are
	// long-lived (per-request cancellation rides the inbound context).
	fed       *federation.Node
	fedClient *http.Client
}

// NewFleetServer builds the REST front end over a fleet scheduler.
func NewFleetServer(f *fleet.Scheduler) *Server {
	s := &Server{fleet: f, closing: make(chan struct{})}
	s.routes()
	return s
}

// Close begins a graceful wind-down of the server's long-lived responses:
// every active v2 watch stream emits a final "server-closing" event and
// returns, so an enclosing http.Server.Shutdown stops blocking on them.
// Close is idempotent and does not touch the backend (stop the fleet
// separately).
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closing) })
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(pathV1JobsGone, handleV1JobsGone)
	s.mux.HandleFunc(pathV1JobsGone+"/", handleV1JobsGone)
	s.mux.HandleFunc(pathDevice, s.handleDevice)
	s.mux.HandleFunc(pathFleet, s.handleMetrics)
	s.mux.HandleFunc(pathMetrics, s.handleMetrics)
	s.mux.HandleFunc(pathHealthz, s.handleHealthz)
	s.mux.HandleFunc(pathMetricsProm, s.handleMetricsProm)
	s.mux.HandleFunc(pathV2Jobs, withRequestID(s.handleV2Jobs))
	s.mux.HandleFunc(pathV2Jobs+"/", withRequestID(s.handleV2JobByID))
	s.mux.HandleFunc(pathV2AdminStore, withRequestID(s.handleV2AdminStore))
	s.mux.HandleFunc(pathV2AdminTenants, withRequestID(s.handleV2AdminTenants))
}

// SetTenantLimits installs per-user token-bucket rate limiting on v2
// submission: each user accrues rate jobs/second up to burst. rate <= 0
// removes the limiter (the default: everything admitted).
func (s *Server) SetTenantLimits(rate float64, burst int) {
	s.limiter = tenant.NewLimiter(rate, burst)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is out can only be logged; there is
	// nothing else to send the client.
	_ = json.NewEncoder(w).Encode(v)
}

// outPool recycles the buffers of the response path: those job records
// are written into, and those a sealed job's record is copied into out of
// the scheduler's arena (fleet.Scheduler.View).
var outPool = sync.Pool{New: func() any { return new([]byte) }}

// putOut pools buf unless one outsized record grew it.
func putOut(buf *[]byte) {
	if cap(*buf) <= 64<<10 {
		outPool.Put(buf)
	}
}

// writeRecord writes a job record through a pooled buffer, without
// reflection; the bytes are what writeJSON would send.
func writeRecord(w http.ResponseWriter, status int, job *Job) {
	buf := outPool.Get().(*[]byte)
	defer putOut(buf)
	b, err := job.AppendJSON((*buf)[:0])
	if err != nil {
		writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n')) // the newline json.Encoder ends a value with
	*buf = b
}

// Error rendering. Both API versions share one classification (status,
// code, message, retryability) but render different wire shapes: v1 keeps
// its original byte-compatible `{"error": "..."}` body, v2 sends the
// structured envelope `{"code", "message", "retryable"}`. The golden
// contract tests pin both shapes.

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeV2Error(w http.ResponseWriter, status int, code, msg string, retryable bool) {
	writeJSON(w, status, &APIError{Code: code, Message: msg, Retryable: retryable})
}

// v1MethodNotAllowed is the single 405 path for every v1 handler — HEAD,
// PUT, DELETE and friends all get the same body, not per-handler ad-hoc
// strings.
func v1MethodNotAllowed(w http.ResponseWriter, method string) {
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", method))
}

// handleV1JobsGone is the tombstone for the removed v1 job routes (submit,
// read, history, batch): every method answers 410 and names the v2 resource,
// so nothing can create or read a job around v2's admission control.
func handleV1JobsGone(w http.ResponseWriter, _ *http.Request) {
	writeError(w, http.StatusGone, fmt.Errorf("the v1 job API is gone: use %s (docs/API.md)", pathV2Jobs))
}

// handleMetrics: GET /api/v1/metrics and /api/v1/fleet — the fleet snapshot
// (routing counters, score histograms) with per-device pipeline breakdowns
// (queue depth, outcome counters, cache effectiveness, stage latencies).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		v1MethodNotAllowed(w, r.Method)
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.Metrics())
}

// deviceInfoJSON renders one device's properties + live calibration. The
// full calibration record rides along (couplers included, via the custom
// Calibration marshaller) — §4 users asked for per-element transparency,
// not just means.
func deviceInfoJSON(dev *qdmi.Device) map[string]interface{} {
	calib := dev.Calibration()
	return map[string]interface{}{
		"properties":        dev.Properties(),
		"fidelity_1q":       calib.MeanF1Q(),
		"fidelity_readout":  calib.MeanFReadout(),
		"fidelity_cz":       calib.MeanFCZ(),
		"calibration_age_h": calib.AgeHours,
		"calibration":       calib,
	}
}

// handleDevice: GET device properties + live calibration (QDMI
// pass-through; §4 users asked for coupling maps and transparency).
// `?device=` selects one backend; without it, every backend is returned
// keyed by name.
func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		v1MethodNotAllowed(w, r.Method)
		return
	}
	if name := r.URL.Query().Get("device"); name != "" {
		dev, err := s.fleet.DeviceHandle(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, deviceInfoJSON(dev))
		return
	}
	out := make(map[string]interface{})
	for _, name := range s.fleet.Devices() {
		dev, err := s.fleet.DeviceHandle(name)
		if err != nil {
			continue // removed between listing and lookup
		}
		out[name] = deviceInfoJSON(dev)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	active := s.fleet.ActiveDevices()
	status := "ok"
	if active == 0 {
		status = "fleet-offline"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": status, "active_devices": active,
	})
}
