// Package qrm is the Quantum Resource Manager of Fig. 2: the second-level
// scheduler that sits between the MQSS client and one device. A Manager is
// that device's weighted-fair queue (wfq.go), worker pool (dispatch.go) and
// counters: it JIT-compiles each job against the device's current
// calibration epoch at dispatch time, executes it on the QPU, and an outage
// interrupts queued jobs so the fleet scheduler above can re-route or park
// them ("more robust job restart tools after system outages").
//
// Submit returns a Handle to the one party that waits on the job. A job is
// reachable from the Manager only while it sits in the queue or in a worker's
// hands; job identity, retention, history, listing, traces, events,
// durability and federation ID blocks all belong to fleet.Scheduler.
package qrm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/qdmi"
	"repro/internal/telemetry/trace"
	"repro/internal/tenant"
	"repro/internal/transpile"
)

// JobStatus tracks a quantum job through its lifecycle.
type JobStatus string

const (
	StatusQueued      JobStatus = "queued"
	StatusCompiling   JobStatus = "compiling"
	StatusRunning     JobStatus = "running"
	StatusDone        JobStatus = "done"
	StatusFailed      JobStatus = "failed"
	StatusInterrupted JobStatus = "interrupted" // outage while queued/running
	StatusCancelled   JobStatus = "cancelled"
)

// Request is a job submission.
type Request struct {
	Circuit  *circuit.Circuit `json:"circuit"`
	Shots    int              `json:"shots"`
	Priority int              `json:"priority"`
	// User identifies the submitter (for history filtering).
	User string `json:"user"`
	// DeadlineMs is a wall-clock dispatch budget in milliseconds from
	// submission: a job still queued when it expires is failed with
	// ErrDeadlineMsg instead of being dispatched (0 = no deadline). The
	// queue honors it at claim time, so an expired job never wastes a
	// compile or a QPU round-trip.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Placement selects the JIT placement strategy; fidelity-aware is the
	// default.
	StaticPlacement bool `json:"static_placement,omitempty"`
}

// Job is the QRM's record of one submission.
type Job struct {
	ID      int       `json:"id"`
	Status  JobStatus `json:"status"`
	Request Request   `json:"request"`

	// Compilation artefacts, filled at dispatch.
	CompiledGates int              `json:"compiled_gates,omitempty"`
	CZCount       int              `json:"cz_count,omitempty"`
	Layout        transpile.Layout `json:"layout,omitempty"`
	// Transparency into compilation was an explicit user request (§4).
	CompileStats string `json:"compile_stats,omitempty"`

	// Results.
	Counts     map[int]int `json:"counts,omitempty"`
	DurationUs float64     `json:"duration_us,omitempty"`
	Error      string      `json:"error,omitempty"`

	SubmitTime float64 `json:"submit_time"`
	EndTime    float64 `json:"end_time,omitempty"`

	// done is closed when the job reaches a terminal status.
	done chan struct{}
	// submitWall is the wall-clock submission instant, used only for the
	// pipeline latency metrics; job records keep simulation time.
	submitWall time.Time
	// cancelReq marks a cancel requested while the job was in flight; the
	// dispatch pipeline honors it at the next stage boundary.
	cancelReq bool

	// span is the submitter's span the pipeline stages nest under (the
	// fleet's per-device leg); qwSpan covers submit-to-claim. The submitter
	// owns the trace; terminateLocked ends both and drops the references.
	// Nil when untraced; every use is nil-safe.
	span   *trace.Span
	qwSpan *trace.Span
}

// ErrDeadlineMsg is the error recorded on jobs that expired in the queue;
// API layers key the deadline_exceeded error code off it.
const ErrDeadlineMsg = "deadline exceeded before dispatch"

// ErrShedMsg is the error recorded on jobs shed by admission control when
// the queue crossed its configured bound; API layers key the retryable
// {code:"shed"} envelope off it. Shed jobs are accepted, counted, and
// terminated — never silently dropped — so conservation counters balance.
const ErrShedMsg = "shed: queue over admission high-water mark"

// ErrInterruptedMsg is the error recorded on jobs whose dispatch deadline
// passed while the process was down (fleet.Scheduler.Restore); the v2 API
// keys the retryable {code:"interrupted"} envelope off it.
const ErrInterruptedMsg = "interrupted by restart: dispatch deadline passed during recovery"

// expired reports whether the job's dispatch deadline has passed.
func (j *Job) expired() bool {
	return j.Request.DeadlineMs > 0 &&
		float64(time.Since(j.submitWall).Microseconds())/1000 > j.Request.DeadlineMs
}

// terminalStatus reports whether a status is final.
func terminalStatus(s JobStatus) bool {
	switch s {
	case StatusDone, StatusFailed, StatusInterrupted, StatusCancelled:
		return true
	}
	return false
}

// jobQueue is the priority heap behind the dispatch queue: highest priority
// first, then earliest submission time, then lowest ID (FIFO within a
// simulation instant). Claiming a job is O(log n) instead of re-sorting the
// whole queue under the manager lock on every pop.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.Request.Priority != b.Request.Priority {
		return a.Request.Priority > b.Request.Priority
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}
func (q jobQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x interface{}) { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() interface{} {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// Manager is the QRM of one device.
type Manager struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled on submit, stop, online flips

	dev    *qdmi.Device
	nextID int
	queue  fairQueue

	// admission bounds the queue (zero values = unbounded, the default);
	// crossing a bound sheds the most sheddable queued job with ErrShedMsg.
	admission tenant.Admission

	now    float64
	online bool

	// Pipeline state (dispatch.go).
	workers  int
	stopping bool
	inflight int
	wg       sync.WaitGroup
	stopCh   chan struct{} // closed when the pipeline shuts down; unblocks Handle.Wait
	metrics  metrics
}

// NewManager builds a QRM over a QDMI device handle.
func NewManager(dev *qdmi.Device) *Manager {
	m := &Manager{
		dev:    dev,
		queue:  newFairQueue(),
		online: true,
	}
	m.cond = sync.NewCond(&m.mu)
	m.metrics.init()
	return m
}

// SetOnline marks the QPU available; taking it offline interrupts queued
// work (outage semantics, §3.5). Jobs already claimed by pipeline workers
// run to completion — the control electronics finish the circuit in flight.
func (m *Manager) SetOnline(online bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.online && !online {
		for _, j := range m.queue.drain() {
			m.terminateLocked(j, StatusInterrupted)
			m.metrics.interrupted++
		}
	}
	m.online = online
	m.cond.Broadcast()
}

// terminateLocked moves a job to a terminal status exactly once, stamping
// the end time and releasing every waiter on its handle. No-op when the job
// is already terminal.
func (m *Manager) terminateLocked(j *Job, s JobStatus) {
	if terminalStatus(j.Status) {
		return
	}
	j.Status = s
	j.EndTime = m.now
	// Per-tenant accounting: terminateLocked is the single terminal choke
	// point, so every outcome lands in exactly one tenant counter. Shed
	// jobs surface as StatusFailed but are accounted separately.
	ts := m.queue.stats(j.Request.User)
	switch s {
	case StatusDone:
		ts.Completed++
	case StatusFailed:
		if j.Error == ErrShedMsg {
			ts.Shed++
		} else {
			ts.Failed++
		}
	case StatusCancelled:
		ts.Cancelled++
	case StatusInterrupted:
		ts.Interrupted++
	}
	close(j.done)
	// Close out the spans: queue-wait ends here for jobs that never reached
	// a worker (cancelled/expired/interrupted in the queue — End is
	// idempotent, so claimed jobs are unaffected), and the submitter's span
	// gets its outcome. The trace is the submitter's to retain; a finished
	// job must not pin it.
	j.qwSpan.End()
	if j.Error != "" {
		j.span.End(trace.Str("outcome", string(s)), trace.Str("error", j.Error))
	} else {
		j.span.End(trace.Str("outcome", string(s)))
	}
	j.span, j.qwSpan = nil, nil
}

// Online reports availability.
func (m *Manager) Online() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.online
}

// SetTime sets the simulation clock used for job timestamps.
func (m *Manager) SetTime(t float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = t
}

// Submit enqueues one job and returns the handle its submitter waits on.
// The pipeline's queue-wait, compile and execute spans nest under parent,
// whose trace the submitter owns (nil = untraced).
func (m *Manager) Submit(req Request, parent *trace.Span) (Handle, error) {
	if req.Circuit == nil {
		return Handle{}, fmt.Errorf("qrm: request has no circuit")
	}
	if err := req.Circuit.Validate(); err != nil {
		return Handle{}, fmt.Errorf("qrm: invalid circuit: %w", err)
	}
	if req.Shots < 1 {
		return Handle{}, fmt.Errorf("qrm: shots must be >= 1, got %d", req.Shots)
	}
	if req.Circuit.NumQubits > m.dev.Properties().NumQubits {
		return Handle{}, fmt.Errorf("qrm: circuit needs %d qubits, device has %d",
			req.Circuit.NumQubits, m.dev.Properties().NumQubits)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.online {
		return Handle{}, fmt.Errorf("qrm: QPU offline (maintenance or outage)")
	}
	m.nextID++
	j := &Job{
		ID: m.nextID, Status: StatusQueued, Request: req, SubmitTime: m.now,
		done: make(chan struct{}), submitWall: time.Now(),
		span: parent, qwSpan: parent.StartChild("queue-wait"),
	}
	m.queue.push(j)
	m.metrics.submitted++
	m.queue.stats(req.User).Submitted++
	m.metrics.observeQueueDepth(m.queue.Len())
	m.shedOverLimitLocked(req.User)
	m.cond.Broadcast()
	return Handle{m: m, j: j}, nil
}

// Handle is the submitter's reference to one accepted job — the only way to
// reach it: the Manager keeps no table of jobs, so dropping the handle (once
// the job is out of the queue and the workers' hands) frees the job. It is
// a small value, copied freely; the zero Handle refers to no job.
type Handle struct {
	m *Manager
	j *Job
}

// ID is the job's device-local ID.
func (h Handle) ID() int { return h.j.ID }

// Done is closed when the job reaches a terminal status.
func (h Handle) Done() <-chan struct{} { return h.j.done }

// Record returns a copy of the job record as it stands now; once Done is
// closed it no longer changes. The copy is plain data — it carries no trace
// or channel references, so keeping it pins nothing of the pipeline.
func (h Handle) Record() *Job {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	cp := *h.j
	cp.done, cp.span, cp.qwSpan = nil, nil, nil
	return &cp
}

// Cancel cancels the job. A still-queued job is cancelled immediately; a job
// already claimed by a dispatch worker (compiling or running) has the
// cancellation *requested* — the pipeline honors it at the next stage
// boundary (before the QPU round-trip, or when recording the result), so
// Cancel returning nil means the job will terminate cancelled, not that it
// already has. A terminal job returns an error.
func (h Handle) Cancel() error {
	m, j := h.m, h.j
	m.mu.Lock()
	defer m.mu.Unlock()
	if terminalStatus(j.Status) {
		return fmt.Errorf("qrm: job %d already %s", j.ID, j.Status)
	}
	if m.queue.remove(j.ID) != nil {
		m.terminateLocked(j, StatusCancelled)
		m.metrics.cancelled++
		return nil
	}
	j.cancelReq = true // in flight: flag it for the worker
	return nil
}

// Wait blocks until the job reaches a terminal status and returns its
// record, or until ctx ends (the job stays on the pipeline untouched). A
// queued job needs live workers to ever complete: with the pool stopped —
// or stopping while the job is still queued — Wait returns an error instead
// of blocking forever; the job stays queued for a restart.
func (h Handle) Wait(ctx context.Context) (*Job, error) {
	m, j := h.m, h.j
	m.mu.Lock()
	// An in-flight job (compiling/running) is safe to wait on even during a
	// shutdown: Stop lets dispatched jobs finish before closing stopCh.
	if j.Status == StatusQueued && (m.workers == 0 || m.stopping) {
		m.mu.Unlock()
		return nil, fmt.Errorf("qrm: job %d pending but no dispatch workers running", j.ID)
	}
	stopCh := m.stopCh
	m.mu.Unlock()
	select {
	case <-j.done:
		return h.Record(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-stopCh:
		// Stop closes stopCh only after in-flight jobs complete; recheck in
		// case ours was one of them.
		select {
		case <-j.done:
			return h.Record(), nil
		default:
			return nil, fmt.Errorf("qrm: pipeline stopped with job %d still queued", j.ID)
		}
	}
}

// SetAdmission installs queue-depth bounds (tenant.Admission zero values
// disable each bound). Applies to subsequent submissions; an already-full
// queue is not retroactively shed.
func (m *Manager) SetAdmission(a tenant.Admission) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admission = a
}

// Admission returns the configured queue bounds.
func (m *Manager) Admission() tenant.Admission {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admission
}

// TenantUsage snapshots per-tenant queue accounting, sorted by user.
func (m *Manager) TenantUsage() []tenant.Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.usage()
}

// shedOverLimitLocked enforces the admission bounds after a push: first
// the submitting tenant's own depth cap, then the global high-water mark.
// Victims are the most sheddable queued jobs (lowest priority, newest) —
// possibly the job just submitted. Caller holds m.mu.
func (m *Manager) shedOverLimitLocked(user string) {
	a := m.admission
	if a.MaxTenantQueue > 0 {
		for m.queue.depth(user) > a.MaxTenantQueue {
			m.shedLocked(m.queue.worstOf(user))
		}
	}
	if a.HighWater > 0 {
		for m.queue.Len() > a.HighWater {
			m.shedLocked(m.queue.worst())
		}
	}
}

// shedLocked terminates one queued job with the retryable shed error, so
// its waiter sees it fail loudly rather than vanish.
func (m *Manager) shedLocked(j *Job) {
	if j == nil {
		return
	}
	m.queue.remove(j.ID)
	j.Error = ErrShedMsg
	m.terminateLocked(j, StatusFailed)
	m.metrics.shed++
}

// claimLocked pops queued jobs until it finds a dispatchable one, failing
// expired jobs on the way out of the heap — deadlines are enforced at claim
// time so a stale job never occupies a worker. Returns nil when the queue
// drained to empty. Caller holds m.mu.
func (m *Manager) claimLocked() *Job {
	now := time.Now()
	for m.queue.Len() > 0 {
		j := m.queue.pop(now)
		if j.expired() {
			j.Error = ErrDeadlineMsg
			m.terminateLocked(j, StatusFailed)
			m.metrics.expired++
			m.metrics.failed++
			continue
		}
		j.Status = StatusCompiling
		j.qwSpan.End()
		m.metrics.queueWait.Observe(float64(time.Since(j.submitWall).Microseconds()) / 1000)
		return j
	}
	return nil
}

func (m *Manager) finish(j *Job, counts map[int]int, durUs float64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.cancelReq {
		// A cancel raced the dispatch: the request wins, whatever the device
		// produced. Discarding the result is what cancellation means.
		m.terminateLocked(j, StatusCancelled)
		m.metrics.cancelled++
		return
	}
	if err != nil {
		j.Error = err.Error()
		m.terminateLocked(j, StatusFailed)
		m.metrics.failed++
		return
	}
	j.Counts = counts
	j.DurationUs = durUs
	m.terminateLocked(j, StatusDone)
	m.metrics.completed++
	m.metrics.e2e.Observe(float64(time.Since(j.submitWall).Microseconds()) / 1000)
}
