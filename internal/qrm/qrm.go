// Package qrm is the Quantum Resource Manager of Fig. 2: the second-level
// scheduler that sits between the MQSS client and the device. It keeps a
// prioritized job queue, JIT-compiles each job against the device's live
// QDMI target at dispatch time, executes on the QPU, and maintains a
// paginated job history (the dashboard feature §4's FAQ process produced).
// Batch jobs — a §4 user request — group multiple circuits under one handle,
// and an outage interrupts queued jobs so the fleet scheduler above can
// re-route or park them ("more robust job restart tools after system
// outages"). Job identity, durability and federation ID blocks belong to
// that scheduler; a Manager is one device's queue, cache and worker pool.
//
// Dispatch runs in one of two modes. The synchronous mode (Step/Drain)
// executes one job at a time on the caller's goroutine — the tightly-coupled
// accelerator loop. The pipeline mode (Start/Stop, dispatch.go) runs a
// worker pool so JIT compilation and QPU round-trips for independent jobs
// overlap, with a transpile cache keyed on circuit fingerprint + calibration
// epoch deduplicating compilation across batch jobs with repeated circuits.
package qrm

import (
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
	// BatchID groups circuits submitted together (0 = standalone).
	BatchID int `json:"batch_id,omitempty"`
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

	// done is closed when the job reaches a terminal status; WaitJob and
	// the streaming batch endpoints block on it. Copies made for callers
	// share the channel (it is reference-like), which is exactly right.
	done chan struct{}
	// submitWall is the wall-clock submission instant, used only for the
	// pipeline latency metrics; job records keep simulation time.
	submitWall time.Time
	// cancelReq marks a cancel requested while the job was in flight; the
	// dispatch pipeline honors it at the next stage boundary.
	cancelReq bool

	// tr is the job's span tree; span is the span this manager's pipeline
	// stages nest under (the trace root for directly-submitted jobs, the
	// fleet's per-device leg for observed submissions). trOwned marks
	// traces this manager created and therefore retains at terminal;
	// fleet-observed jobs leave retention to the scheduler. qwSpan covers
	// submit-to-claim. All nil when tracing is disabled; every use is
	// nil-safe.
	tr      *trace.Trace
	span    *trace.Span
	qwSpan  *trace.Span
	trOwned bool
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

// Manager is the QRM.
type Manager struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled on submit, completion, stop, online flips

	dev       *qdmi.Device
	nextID    int
	nextBatch int
	queue     fairQueue
	jobs      map[int]*Job // all jobs ever, by ID
	order     []int        // submission order for pagination

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
	stopCh   chan struct{} // closed when the pipeline shuts down; unblocks WaitJob
	cache    *transpileCache
	gate     slotGate // optional QPU admission gate (hpc co-scheduling)
	metrics  metrics
	bus      *EventBus // lifecycle transitions for watch subscribers

	// Trace retention: a FIFO of the last traceCap terminal job IDs whose
	// traces this manager owns. Eviction drops the job's trace reference;
	// in-flight snapshot readers keep evicted traces alive via their own
	// pointer, so no coordination beyond m.mu is needed.
	traceRing     []int
	traceCap      int
	traceSpanDrop uint64 // spans lost to slab exhaustion, summed at terminal
}

// slotGate is the admission interface the HPC co-scheduler's QPU gate
// satisfies (hpc.Gate); declared locally to keep qrm free of an hpc import.
type slotGate interface {
	Acquire()
	Release()
}

// NewManager builds a QRM over a QDMI device handle.
func NewManager(dev *qdmi.Device) *Manager {
	m := &Manager{
		dev:      dev,
		queue:    newFairQueue(),
		jobs:     make(map[int]*Job),
		online:   true,
		cache:    newTranspileCache(),
		bus:      NewEventBus(),
		traceCap: DefaultTraceRetention,
	}
	m.cond = sync.NewCond(&m.mu)
	m.metrics.init()
	return m
}

// Events returns the manager's job event bus. Subscriptions see every
// lifecycle transition (queued, compiling, running, terminal) as it happens.
func (m *Manager) Events() *EventBus { return m.bus }

// publishLocked emits a lifecycle event. Caller holds m.mu; the bus has its
// own lock and never calls back into the manager, so this cannot deadlock.
func (m *Manager) publishLocked(j *Job, from JobStatus, reason string) {
	m.bus.Publish(Event{
		JobID:  j.ID,
		From:   string(from),
		To:     string(j.Status),
		Device: m.dev.QPU().Name(),
		Reason: reason,
		Time:   m.now,
	})
}

// SetGate installs a QPU-slot admission gate (typically the HPC scheduler's
// hpc.Gate) that pipeline workers acquire around device execution, keeping
// the dispatch pipeline from oversubscribing the co-scheduled quantum
// resource. Pass nil to remove. Must be called before Start.
func (m *Manager) SetGate(g slotGate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gate = g
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
// the end time and releasing every WaitJob blocked on it. No-op when the
// job is already terminal.
func (m *Manager) terminateLocked(j *Job, s JobStatus) {
	if terminalStatus(j.Status) {
		return
	}
	from := j.Status
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
	if j.done != nil {
		close(j.done)
	}
	// Close out the trace: queue-wait ends here for jobs that never reached
	// a worker (cancelled/expired/interrupted in the queue — End is
	// idempotent, so claimed jobs are unaffected), and the job's span gets
	// its outcome. Owned traces enter the retention ring.
	j.qwSpan.End()
	if j.Error != "" {
		j.span.End(trace.Str("outcome", string(s)), trace.Str("error", j.Error))
	} else {
		j.span.End(trace.Str("outcome", string(s)))
	}
	if j.trOwned && j.tr != nil {
		m.retainTraceLocked(j)
	}
	m.publishLocked(j, from, "")
}

// DefaultTraceRetention bounds how many terminal-job traces a manager
// keeps for GET /jobs/{id}/trace.
const DefaultTraceRetention = 256

// retainTraceLocked pushes a terminal job into the trace ring, evicting
// the oldest retained trace when full. Caller holds m.mu.
func (m *Manager) retainTraceLocked(j *Job) {
	m.traceSpanDrop += j.tr.Dropped()
	if m.traceCap < 1 {
		j.tr, j.span, j.qwSpan = nil, nil, nil
		return
	}
	if len(m.traceRing) >= m.traceCap {
		old := m.traceRing[0]
		m.traceRing = m.traceRing[1:]
		if oj, ok := m.jobs[old]; ok {
			oj.tr, oj.span, oj.qwSpan = nil, nil, nil
		}
	}
	m.traceRing = append(m.traceRing, j.ID)
}

// SetTraceRetention resizes the terminal-trace ring (0 disables retention).
// Shrinking evicts oldest-first immediately.
func (m *Manager) SetTraceRetention(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.traceCap = n
	for len(m.traceRing) > n {
		old := m.traceRing[0]
		m.traceRing = m.traceRing[1:]
		if oj, ok := m.jobs[old]; ok {
			oj.tr, oj.span, oj.qwSpan = nil, nil, nil
		}
	}
}

// Trace returns the job's span tree, or nil when the job is unknown, was
// never traced, or its trace has been evicted from the retention ring.
// The returned trace is safe to snapshot concurrently with eviction.
func (m *Manager) Trace(id int) *trace.Trace {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j.tr
	}
	return nil
}

// TraceStats reports retained-trace count and total spans lost to per-job
// slab exhaustion across terminal jobs — the /metrics gauges.
func (m *Manager) TraceStats() (retained int, spanDrops uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.traceRing), m.traceSpanDrop
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

// Submit enqueues one job and returns its ID. The job gets its own trace
// (retained at terminal in the manager's ring); layers that already carry
// a trace — the fleet scheduler — use SubmitObserved instead.
func (m *Manager) Submit(req Request) (int, error) {
	return m.submit(req, nil)
}

// SubmitObserved enqueues one job whose pipeline spans (queue-wait,
// compile, execute) nest under parent instead of a fresh trace root. The
// caller owns the trace's retention; this manager only appends to it.
func (m *Manager) SubmitObserved(req Request, parent *trace.Span) (int, error) {
	return m.submit(req, parent)
}

func (m *Manager) submit(req Request, parent *trace.Span) (int, error) {
	if req.Circuit == nil {
		return 0, fmt.Errorf("qrm: request has no circuit")
	}
	if err := req.Circuit.Validate(); err != nil {
		return 0, fmt.Errorf("qrm: invalid circuit: %w", err)
	}
	if req.Shots < 1 {
		return 0, fmt.Errorf("qrm: shots must be >= 1, got %d", req.Shots)
	}
	if req.Circuit.NumQubits > m.dev.Properties().NumQubits {
		return 0, fmt.Errorf("qrm: circuit needs %d qubits, device has %d",
			req.Circuit.NumQubits, m.dev.Properties().NumQubits)
	}
	m.mu.Lock()
	if !m.online {
		m.mu.Unlock()
		return 0, fmt.Errorf("qrm: QPU offline (maintenance or outage)")
	}
	m.nextID++
	j := &Job{
		ID: m.nextID, Status: StatusQueued, Request: req, SubmitTime: m.now,
		done: make(chan struct{}), submitWall: time.Now(),
	}
	if parent != nil {
		j.tr, j.span = parent.Trace(), parent
	} else {
		j.tr = trace.New("job",
			trace.Int("job_id", j.ID), trace.Str("user", req.User))
		j.span = j.tr.Root()
		j.trOwned = j.tr != nil
	}
	j.qwSpan = j.span.StartChild("queue-wait")
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.queue.push(j)
	m.metrics.submitted++
	m.queue.stats(req.User).Submitted++
	m.metrics.observeQueueDepth(m.queue.Len())
	m.publishLocked(j, "", "")
	m.shedOverLimitLocked(req.User)
	m.cond.Broadcast()
	m.mu.Unlock()
	return j.ID, nil
}

// SubmitBatch enqueues several circuits under one batch ID (a §4 user
// request). It returns the batch ID and per-circuit job IDs.
func (m *Manager) SubmitBatch(reqs []Request) (int, []int, error) {
	if len(reqs) == 0 {
		return 0, nil, fmt.Errorf("qrm: empty batch")
	}
	m.mu.Lock()
	m.nextBatch++
	batch := m.nextBatch
	m.mu.Unlock()
	ids := make([]int, 0, len(reqs))
	for i := range reqs {
		reqs[i].BatchID = batch
		id, err := m.Submit(reqs[i])
		if err != nil {
			return batch, ids, fmt.Errorf("qrm: batch item %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return batch, ids, nil
}

// Cancel cancels a job. A still-queued job is cancelled immediately; a job
// already claimed by a dispatch worker (compiling or running) has the
// cancellation *requested* — the pipeline honors it at the next stage
// boundary (before the QPU round-trip, or when recording the result), so
// Cancel returning nil means the job will terminate cancelled, not that it
// already has. Terminal and unknown jobs return an error.
func (m *Manager) Cancel(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("qrm: no job %d", id)
	}
	if terminalStatus(j.Status) {
		return fmt.Errorf("qrm: job %d already %s", id, j.Status)
	}
	if m.queue.remove(id) != nil {
		m.terminateLocked(j, StatusCancelled)
		m.metrics.cancelled++
		m.cond.Broadcast() // the queue may now be idle; wake WaitIdle
		return nil
	}
	// In flight: flag it for the worker. The event lets watchers see the
	// request even though the status has not changed yet.
	j.cancelReq = true
	m.publishLocked(j, j.Status, "cancel-requested")
	return nil
}

// PendingCount returns the queue length.
func (m *Manager) PendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.Len()
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

// shedLocked terminates one queued job with the retryable shed error.
// The job stays in history and its terminal event publishes normally, so
// waiters and watch streams see it fail loudly rather than vanish.
func (m *Manager) shedLocked(j *Job) {
	if j == nil {
		return
	}
	m.queue.remove(j.ID)
	j.Error = ErrShedMsg
	m.terminateLocked(j, StatusFailed)
	m.metrics.shed++
	m.cond.Broadcast() // the queue may now be idle; wake WaitIdle
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
			m.cond.Broadcast() // the queue may now be idle; wake WaitIdle
			continue
		}
		j.Status = StatusCompiling
		j.qwSpan.End()
		m.metrics.queueWait.Observe(float64(time.Since(j.submitWall).Microseconds()) / 1000)
		m.publishLocked(j, StatusQueued, "")
		return j
	}
	return nil
}

// Step dispatches and executes the highest-priority queued job, JIT-compiling
// it against the live QDMI target first. It returns the completed job, or
// nil if the queue is empty. Step is the synchronous mode; while the worker
// pipeline is running it returns an error (use WaitJob instead).
func (m *Manager) Step() (*Job, error) {
	m.mu.Lock()
	for m.stopping && m.workers > 0 {
		// A Stop is draining the pool; wait it out so callers falling back
		// to synchronous dispatch don't get a spurious error.
		m.cond.Wait()
	}
	if m.workers > 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("qrm: pipeline running; submit and WaitJob instead of Step")
	}
	if !m.online {
		m.mu.Unlock()
		return nil, fmt.Errorf("qrm: QPU offline")
	}
	j := m.claimLocked()
	if j == nil {
		m.mu.Unlock()
		return nil, nil
	}
	m.mu.Unlock()

	m.dispatchOne(j)
	return j, nil
}

// Drain executes queued jobs until the queue is empty, returning how many
// jobs ran. Synchronous mode only; with the pipeline running use WaitIdle.
func (m *Manager) Drain() (int, error) {
	n := 0
	for {
		j, err := m.Step()
		if err != nil {
			return n, err
		}
		if j == nil {
			return n, nil
		}
		n++
	}
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

// Job returns a copy of the job record.
func (m *Manager) Job(id int) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("qrm: no job %d", id)
	}
	cp := *j
	return &cp, nil
}

// Page is a paginated slice of job history — §4: "many users found it
// difficult to navigate large job histories on the dashboard, which led us
// to implement more efficient pagination".
type Page struct {
	Jobs    []*Job `json:"jobs"`
	Total   int    `json:"total"`
	Offset  int    `json:"offset"`
	Limit   int    `json:"limit"`
	HasMore bool   `json:"has_more"`
}

// History returns a page of jobs (most recent first), optionally filtered
// by user.
func (m *Manager) History(user string, offset, limit int) (*Page, error) {
	if offset < 0 || limit < 1 {
		return nil, fmt.Errorf("qrm: bad pagination offset=%d limit=%d", offset, limit)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []int
	for i := len(m.order) - 1; i >= 0; i-- {
		j := m.jobs[m.order[i]]
		if user == "" || j.Request.User == user {
			ids = append(ids, j.ID)
		}
	}
	total := len(ids)
	if offset >= total {
		return &Page{Total: total, Offset: offset, Limit: limit}, nil
	}
	endIdx := offset + limit
	if endIdx > total {
		endIdx = total
	}
	page := &Page{Total: total, Offset: offset, Limit: limit, HasMore: endIdx < total}
	for _, id := range ids[offset:endIdx] {
		cp := *m.jobs[id]
		page.Jobs = append(page.Jobs, &cp)
	}
	return page, nil
}

// ListJobs returns up to limit job copies with ID strictly below beforeID
// (0 = start from the newest), newest first, filtered by user ("" = any)
// and status set (nil = any) — the cursor primitive behind the v2 paginated
// listing: the caller threads the last returned ID back in as beforeID.
// more reports whether older matching jobs remain.
func (m *Manager) ListJobs(user string, states map[JobStatus]bool, beforeID, limit int) (jobs []*Job, more bool) {
	if limit < 1 {
		limit = 20
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.order) - 1; i >= 0; i-- {
		j := m.jobs[m.order[i]]
		if beforeID > 0 && j.ID >= beforeID {
			continue
		}
		if user != "" && j.Request.User != user {
			continue
		}
		if states != nil && !states[j.Status] {
			continue
		}
		if len(jobs) == limit {
			return jobs, true
		}
		cp := *j
		jobs = append(jobs, &cp)
	}
	return jobs, false
}
