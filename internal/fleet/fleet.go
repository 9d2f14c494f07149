// Package fleet is the multi-QPU scheduler the MQSS/QDMI architecture
// (§2.6, Fig. 2) was designed to enable: one HPC-side scheduler serving N
// heterogeneous backends. Each registered device carries its own qrm.Manager
// worker pool; submitted circuits are scored against every eligible device —
// estimated fidelity from the live calibration snapshot, topology/width fit,
// current queue depth — and routed to the best one under the configured
// policy (best-fidelity, least-loaded, round-robin).
//
// The scheduler owns the paper's operational realities at fleet scale:
// calibration slots and §3.4 maintenance windows drain a device and
// transparently migrate its pending jobs to siblings, device faults trigger
// failover with the failed device excluded from routing, and jobs with no
// eligible backend park until one returns — no submission is ever lost.
// Per-device telemetry (queue depth, routed/migrated/failed counters,
// fidelity-score histograms) publishes into telemetry.Store and the REST
// metrics endpoint.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tenant"
)

// DeviceState tracks a backend through the fleet lifecycle.
type DeviceState string

const (
	// DeviceActive devices accept routed work.
	DeviceActive DeviceState = "active"
	// DeviceDraining devices were drained by an operator; queued jobs have
	// migrated to siblings and no new work routes here until Resume.
	DeviceDraining DeviceState = "draining"
	// DeviceMaintenance devices are inside a §3.4 maintenance (or
	// calibration) window; AdvanceTo restores them when the window closes.
	DeviceMaintenance DeviceState = "maintenance"
	// DeviceFailed devices faulted; failover excluded them from routing
	// until Recover.
	DeviceFailed DeviceState = "failed"
)

// Job is the fleet's record of one submission: the routing envelope plus
// the device-level record under Result — final once the job is terminal,
// the live leg on the copy Scheduler.Job returns of a routed job.
type Job struct {
	ID int `json:"id"`
	// Status is written by transitionLocked only (lifecycle.go).
	Status JobStatus `json:"status"`
	// Device is the backend currently (or finally) holding the job.
	Device string `json:"device,omitempty"`
	// Migrations counts drain/failover re-routes this job survived.
	Migrations int `json:"migrations,omitempty"`
	// Score is the fidelity estimate the router computed for the chosen
	// device at the last routing decision.
	Score   float64     `json:"score,omitempty"`
	Pinned  string      `json:"pinned,omitempty"`
	Request qrm.Request `json:"request"`
	// Result is the device-level record (counts, layout, timings).
	Result *qrm.Job `json:"result,omitempty"`
	Error  string   `json:"error,omitempty"`

	// SubmitUnixMs is the wall-clock submission instant in Unix
	// milliseconds, excluded from the wire shape; the durable store
	// persists it so dispatch deadlines keep their budget across restarts.
	SubmitUnixMs int64 `json:"-"`
	// Recovered marks a job restored from the durable store after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Node is the federation ownership stamp: the node that minted this
	// job's ID and whose durable store is authoritative for it. Empty on
	// standalone deployments and in pre-federation WAL records — replay
	// treats the missing field as "".
	Node string `json:"node,omitempty"`
	// IdemKey is the Idempotency-Key the job was submitted under ("" for a
	// keyless submission). It travels in the job's own journal record, so
	// the binding and the job reach disk in one frame.
	IdemKey string `json:"idem_key,omitempty"`

	policy Policy
	done   chan struct{}
	// ackLSN is the journal LSN a submitter waits on before acking this job:
	// its submit record (which carries IdemKey) and first placement. Zero on
	// recovered jobs — they were on disk before this process started.
	ackLSN uint64
	// handle is the job on its current device's QRM, held for the life of
	// the on-device leg: monitor waits on it, Cancel and Job go through it,
	// finalizeLocked and migrateLocked drop it (zero otherwise).
	handle qrm.Handle

	// tr is the job's span tree, owned (and retained at terminal) by the
	// scheduler. rootSpan is its root; parkSpan covers a parked interval.
	// Each routing attempt opens an "on-device" leg span that the device's
	// QRM closes at the device-level terminal state, so migrations show up
	// as successive legs under one root. All nil with tracing disabled.
	tr       *trace.Trace
	rootSpan *trace.Span
	parkSpan *trace.Span
}

// SubmitOptions tune one submission.
type SubmitOptions struct {
	// Device pins the job to one backend; it parks rather than migrate to a
	// sibling when that backend is unavailable.
	Device string
	// Policy overrides the scheduler default for this job.
	Policy Policy
	// IdemKey makes the submission replay-safe: a second submission under
	// the same key, within the dedup window, returns the first one's job
	// instead of minting another. Empty never dedups.
	IdemKey string
}

// idemWindow bounds the Idempotency-Key dedup window. At production
// submission rates this is a few minutes of keys; memory stays O(bound)
// forever. A key older than the window simply submits fresh, which is the
// documented contract ("at-most-once within the dedup window").
const idemWindow = 1024

// deviceEntry is one registered backend.
type deviceEntry struct {
	name    string
	dev     *qdmi.Device
	mgr     *qrm.Manager
	workers int
	state   DeviceState

	// Routing counters (guarded by Scheduler.mu).
	routed      uint64
	migratedOut uint64
	completed   uint64
	failed      uint64
	shed        uint64

	scoreHist   *telemetry.Histogram
	regionMemo  map[int]float64 // width -> mean pairwise region distance (score.go)
	maintenance []ops.MaintenanceWindow
}

// Scheduler is the fleet: registry + router + migration machinery.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled on job finalization (WaitSettled)

	policy  Policy
	devices map[string]*deviceEntry
	order   []string // registration order; round-robin walks it
	rr      int

	nextID   int
	idLimit  int    // last mintable ID, inclusive (0 = unbounded; federation block end)
	nodeID   string // federation ownership stamp for new jobs ("" standalone)
	jobs     map[int]*Job
	jobOrder []int
	parked   map[int]*Job
	nowDay   float64 // maintenance clock, last AdvanceTo day

	// The Idempotency-Key dedup window: key -> job ID for the newest
	// idemWindow keyed jobs, idemOrder their IDs in FIFO eviction order.
	idem      map[string]int
	idemOrder []int

	store     *telemetry.Store
	scoreHist *telemetry.Histogram
	bus       *EventBus // every lifecycle transition (transitionLocked)

	submitted uint64
	routed    uint64
	migrated  uint64
	parkEvts  uint64
	completed uint64
	failures  uint64
	cancelled uint64
	shed      uint64
	illegal   uint64 // transitions taken that the lifecycle table does not list

	// admission is forwarded to every device manager (current and future);
	// zero values = unbounded, the default.
	admission tenant.Admission

	closed bool
	wg     sync.WaitGroup // per-job monitor goroutines

	// Durable job store (nil = in-memory only). walTail is the LSN of the
	// most recent record journaled under s.mu; a new job takes it as its
	// ackLSN, which Submit waits on after unlocking so a returned ID implies
	// the submission is on disk.
	jstore  JobStore
	walTail uint64

	// Trace retention: a FIFO of the last traceCap terminal job IDs.
	// Eviction drops the job's trace reference; in-flight snapshot readers
	// keep evicted traces alive via their own pointer, so no coordination
	// beyond s.mu is needed.
	traceRing     []int
	traceCap      int
	traceSpanDrop uint64
}

// New builds an empty fleet under the given default policy. store may be nil
// (no telemetry publication).
func New(policy Policy, store *telemetry.Store) *Scheduler {
	s := &Scheduler{
		policy:    policy,
		devices:   make(map[string]*deviceEntry),
		jobs:      make(map[int]*Job),
		parked:    make(map[int]*Job),
		idem:      make(map[string]int),
		store:     store,
		scoreHist: scoreHistogram(),
		bus:       NewEventBus(),
		traceCap:  DefaultTraceRetention,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Events returns the job event bus: one event per lifecycle transition, the
// feed the v2 watch endpoint serves.
func (s *Scheduler) Events() *EventBus { return s.bus }

// JobStore is the durability boundary behind the fleet scheduler (declared
// locally so fleet stays free of a durable import). Every fleet transition —
// submission, placement, parking, migration, terminal — is journaled as an
// upsert of the job's full record, Idempotency-Key binding included;
// internal/durable's WAL-backed Store implements it.
type JobStore interface {
	JournalFleetJob(j *Job) (lsn uint64)
	WaitDurable(lsn uint64)
}

// AttachStore installs the durable job store: subsequent transitions are
// journaled and Submit acks only after its record is durable. Pass nil to
// detach. Attach before the first submission; replayed history comes in
// through Restore.
func (s *Scheduler) AttachStore(st JobStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jstore = st
}

// AddDevice registers a backend under a unique name and starts its private
// dispatch pool with the given worker count. Parked jobs that fit the new
// device are dispatched immediately.
func (s *Scheduler) AddDevice(name string, dev *qdmi.Device, workers int) error {
	if name == "" {
		return fmt.Errorf("fleet: device name must be non-empty")
	}
	if workers < 1 {
		return fmt.Errorf("fleet: device %q needs >= 1 workers, got %d", name, workers)
	}
	mgr := qrm.NewManager(dev)
	if err := mgr.Start(workers); err != nil {
		return fmt.Errorf("fleet: starting %q pool: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mgr.SetAdmission(s.admission)
	if s.closed {
		mgr.Stop()
		return fmt.Errorf("fleet: scheduler stopped")
	}
	if _, dup := s.devices[name]; dup {
		mgr.Stop()
		return fmt.Errorf("fleet: device %q already registered", name)
	}
	s.devices[name] = &deviceEntry{
		name: name, dev: dev, mgr: mgr, workers: workers,
		state:      DeviceActive,
		scoreHist:  scoreHistogram(),
		regionMemo: make(map[int]float64),
	}
	s.order = append(s.order, name)
	s.dispatchParkedLocked()
	return nil
}

// Store returns the telemetry store attached at New (may be nil).
func (s *Scheduler) Store() *telemetry.Store { return s.store }

// ActiveDevices counts backends currently accepting routed work — the cheap
// health signal (Metrics snapshots every per-device histogram).
func (s *Scheduler) ActiveDevices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.devices {
		if e.state == DeviceActive {
			n++
		}
	}
	return n
}

// Devices returns registered device names in registration order.
func (s *Scheduler) Devices() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Policy returns the default routing policy.
func (s *Scheduler) Policy() Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy
}

// SetIDBase raises the ID counter so every future fleet job ID is > base.
// Federated deployments partition the global ID space between nodes this
// way; like Restore, the call only ever raises the counter, so composing
// the two in either order is safe.
func (s *Scheduler) SetIDBase(base int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base > s.nextID {
		s.nextID = base
	}
}

// SetIDLimit caps the ID counter: submissions are refused once every ID
// up to limit (inclusive) has been minted. Federated deployments set it
// to the end of this node's ID block — spilling past it would land IDs
// in the next member's block and silently misroute owner lookups, so
// exhaustion is a hard refusal, not a wrap. Zero means unbounded.
func (s *Scheduler) SetIDLimit(limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idLimit = limit
}

// SetNodeID stamps every future job record with the owning federation
// node. Empty (the default) means standalone.
func (s *Scheduler) SetNodeID(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodeID = id
}

// NodeID returns the federation ownership stamp set by SetNodeID.
func (s *Scheduler) NodeID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeID
}

// SetAdmission applies queue-depth bounds fleet-wide: the config is stored
// for devices added later and pushed to every registered device manager,
// where shedding is actually enforced (each device bounds its own queue).
func (s *Scheduler) SetAdmission(a tenant.Admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admission = a
	for _, e := range s.devices {
		e.mgr.SetAdmission(a)
	}
}

// Admission returns the fleet-wide admission config.
func (s *Scheduler) Admission() tenant.Admission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admission
}

// TenantUsage merges per-tenant accounting across every device manager.
// A job that migrated between devices is counted once per terminal
// outcome (the migration source never terminated it), so the merged rows
// still conserve: submitted == completed + failed + cancelled + shed +
// interrupted + queued once the fleet settles.
func (s *Scheduler) TenantUsage() []tenant.Usage {
	s.mu.Lock()
	mgrs := make([]*qrm.Manager, 0, len(s.order))
	for _, name := range s.order {
		mgrs = append(mgrs, s.devices[name].mgr)
	}
	s.mu.Unlock()
	rows := make([][]tenant.Usage, 0, len(mgrs))
	for _, m := range mgrs {
		rows = append(rows, m.TenantUsage())
	}
	return tenant.MergeUsage(rows...)
}

// maxWidthLocked is the widest registered backend.
func (s *Scheduler) maxWidthLocked() int {
	w := 0
	for _, e := range s.devices {
		if n := e.dev.Properties().NumQubits; n > w {
			w = n
		}
	}
	return w
}

// Submit validates and accepts one job, routing it to the best eligible
// device (or parking it when none is). The job ID is fleet-scoped.
func (s *Scheduler) Submit(req qrm.Request, opts SubmitOptions) (int, error) {
	id, _, err := s.SubmitKeyed(req, opts)
	return id, err
}

// SubmitKeyed is Submit that also reports whether opts.IdemKey replayed an
// earlier submission: replayed means the returned ID is the job that key
// was first bound to and nothing new was minted. Only successful
// submissions bind — a refused one created no job, so there is nothing to
// protect from duplication, and binding a transient refusal would turn a
// retryable response into a permanently replayed failure.
func (s *Scheduler) SubmitKeyed(req qrm.Request, opts SubmitOptions) (id int, replayed bool, err error) {
	if req.Circuit == nil {
		return 0, false, fmt.Errorf("fleet: request has no circuit")
	}
	if err := req.Circuit.Validate(); err != nil {
		return 0, false, fmt.Errorf("fleet: invalid circuit: %w", err)
	}
	if req.Shots < 1 {
		return 0, false, fmt.Errorf("fleet: shots must be >= 1, got %d", req.Shots)
	}
	policy := s.policy
	if opts.Policy != "" {
		if err := opts.Policy.Validate(); err != nil {
			return 0, false, err
		}
		policy = opts.Policy
	}
	s.mu.Lock()
	var j *Job
	if bound, ok := s.idem[opts.IdemKey]; ok { // "" is never bound
		j, replayed = s.jobs[bound], true
	} else if j, err = s.mintLocked(req, opts, policy); err != nil {
		s.mu.Unlock()
		return 0, false, err
	}
	st, lsn := s.jstore, j.ackLSN
	s.mu.Unlock()
	if st != nil {
		// Ack-after-durable: the ID is not returned until the submit record
		// — which carries the key binding — is on stable storage, so a 202
		// implies the job survives kill -9 still bound to its key. The
		// routing decision journaled too, so the one LSN covers the
		// submission and its first placement, and a replay waits on the LSN
		// its original waited on, so it is never acked ahead of it. The wait
		// is outside s.mu so group commit batches concurrent submitters,
		// keyed or not, behind one fsync.
		st.WaitDurable(lsn)
	}
	return j.ID, replayed, nil
}

// mintLocked admits req, mints its job, binds opts.IdemKey to it and routes
// it. Caller holds s.mu and has found the key unbound.
func (s *Scheduler) mintLocked(req qrm.Request, opts SubmitOptions, policy Policy) (*Job, error) {
	if s.idLimit > 0 && s.nextID >= s.idLimit {
		return nil, fmt.Errorf("fleet: job-ID space exhausted: this node's federation ID block ends at %d; minting past it would misroute owner lookups", s.idLimit)
	}
	if err := s.admitLocked(req, opts); err != nil {
		return nil, err
	}
	s.nextID++
	j := &Job{
		ID: s.nextID, Request: req,
		Pinned: opts.Device, policy: policy, done: make(chan struct{}),
		SubmitUnixMs: time.Now().UnixMilli(), Node: s.nodeID, IdemKey: opts.IdemKey,
	}
	j.tr = trace.New("job",
		trace.Int("job_id", j.ID), trace.Str("user", req.User))
	j.rootSpan = j.tr.Root()
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	s.submitted++
	s.bindLocked(j)
	s.transitionLocked(j, JobQueued, "")
	s.routeLocked(j, nil, "")
	j.ackLSN = s.walTail
	return j, nil
}

// bindLocked enters a keyed job into the dedup window, evicting the oldest
// binding past idemWindow. Caller holds s.mu.
func (s *Scheduler) bindLocked(j *Job) {
	if j.IdemKey == "" {
		return
	}
	s.idem[j.IdemKey] = j.ID
	s.idemOrder = append(s.idemOrder, j.ID)
	for len(s.idemOrder) > idemWindow {
		// A key that aged out and was submitted fresh is carried by two
		// recovered jobs; evicting the older one must not unbind the newer.
		old := s.idemOrder[0]
		if key := s.jobs[old].IdemKey; s.idem[key] == old {
			delete(s.idem, key)
		}
		s.idemOrder = s.idemOrder[1:]
	}
}

// admitLocked runs Submit's validation against the registry. Caller holds
// s.mu.
func (s *Scheduler) admitLocked(req qrm.Request, opts SubmitOptions) error {
	if s.closed {
		return fmt.Errorf("fleet: scheduler stopped")
	}
	if len(s.devices) == 0 {
		return fmt.Errorf("fleet: no devices registered")
	}
	if opts.Device != "" {
		e, ok := s.devices[opts.Device]
		if !ok {
			return fmt.Errorf("fleet: unknown device %q", opts.Device)
		}
		if req.Circuit.NumQubits > e.dev.Properties().NumQubits {
			return fmt.Errorf("fleet: circuit needs %d qubits, pinned device %q has %d",
				req.Circuit.NumQubits, opts.Device, e.dev.Properties().NumQubits)
		}
	} else if w := s.maxWidthLocked(); req.Circuit.NumQubits > w {
		return fmt.Errorf("fleet: circuit needs %d qubits, widest device has %d",
			req.Circuit.NumQubits, w)
	}
	return nil
}

// routeLocked places j on the best eligible device, excluding the listed
// names for this attempt; reason annotates the published event ("" for a
// fresh submission, "migrated" for drain/failover re-routes, "unparked"
// when a parked job gets another chance). With no eligible device the job
// parks; it is re-dispatched when a device resumes (with a clean slate — a
// previously excluded device may have recovered by then).
func (s *Scheduler) routeLocked(j *Job, exclude map[string]bool, reason string) {
	if s.closed {
		s.finalizeLocked(j, JobFailed, nil, "fleet: scheduler stopped before the job could run")
		return
	}
	// A re-route of a parked job closes its parked interval first.
	j.parkSpan.End()
	j.parkSpan = nil
	routeSpan := j.rootSpan.StartChild("route")
	for {
		e, score, ok := s.pickLocked(j, exclude)
		if !ok {
			j.Device = ""
			s.parked[j.ID] = j
			s.parkEvts++
			routeSpan.End(trace.Str("outcome", "parked"))
			j.parkSpan = j.rootSpan.StartChild("parked")
			s.transitionLocked(j, JobQueued, "parked")
			return
		}
		req := j.Request
		// The on-device leg nests the device QRM's queue-wait/compile/
		// execute spans; its QRM ends it at the device-terminal state.
		leg := j.rootSpan.StartChild("on-device", trace.Str("device", e.name))
		h, err := e.mgr.Submit(req, leg)
		if err != nil {
			// The device flipped offline between scoring and submission;
			// exclude it for this attempt and retry.
			leg.End(trace.Str("outcome", "rejected"))
			if exclude == nil {
				exclude = make(map[string]bool)
			}
			exclude[e.name] = true
			continue
		}
		routeSpan.End(trace.Str("device", e.name))
		j.Device = e.name
		j.handle = h
		j.Score = score
		s.transitionLocked(j, JobRouted, reason)
		e.routed++
		s.routed++
		e.scoreHist.Observe(score)
		s.scoreHist.Observe(score)
		s.wg.Add(1)
		go s.monitor(j, e, h)
		return
	}
}

// monitor follows one routed job to its device-level terminal state and
// decides the fleet-level outcome: finalize, or migrate to a sibling when
// the device was drained or failed out from under it.
func (s *Scheduler) monitor(j *Job, e *deviceEntry, h qrm.Handle) {
	defer s.wg.Done()
	rec, err := h.Wait(context.Background())
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.Status.Terminal() {
		return // fleet-level Cancel or Stop already settled it
	}
	if err != nil {
		// The device pool stopped with the job still queued (teardown).
		if s.closed {
			s.finalizeLocked(j, JobFailed, nil, "fleet: stopped with job queued: "+err.Error())
			return
		}
		s.migrateLocked(j, e)
		return
	}
	switch rec.Status {
	case qrm.StatusDone:
		e.completed++
		s.finalizeLocked(j, JobDone, rec, "")
	case qrm.StatusFailed:
		if rec.Error == qrm.ErrShedMsg {
			// Admission control evicted it under overload: a deliberate,
			// retryable refusal — attributed to shedding, not device failure,
			// and never migrated (a sibling under the same storm would only
			// shed it again).
			e.shed++
			s.finalizeLocked(j, JobFailed, rec, rec.Error)
			return
		}
		if e.state == DeviceFailed {
			// The backend faulted mid-job: failover, not a job defect.
			s.migrateLocked(j, e)
			return
		}
		e.failed++
		s.finalizeLocked(j, JobFailed, rec, rec.Error)
	case qrm.StatusInterrupted:
		// Drain, maintenance window, or outage: requeue on a sibling.
		s.migrateLocked(j, e)
	case qrm.StatusCancelled:
		s.finalizeLocked(j, JobCancelled, rec, "")
	default:
		s.finalizeLocked(j, JobFailed, rec, fmt.Sprintf("fleet: unexpected device status %q", rec.Status))
	}
}

// migrateLocked re-routes a displaced job. Its old device is not excluded:
// drained, failed or offline it is ineligible anyway, and if it was resumed
// before this monitor got the lock, excluding it would park a pinned (or
// single-device) job beside an active device with nothing left to wake it.
func (s *Scheduler) migrateLocked(j *Job, from *deviceEntry) {
	j.handle = qrm.Handle{}
	j.Migrations++
	from.migratedOut++
	s.migrated++
	s.routeLocked(j, nil, "migrated")
}

// finalizeLocked settles a fleet job exactly once.
func (s *Scheduler) finalizeLocked(j *Job, st JobStatus, rec *qrm.Job, errMsg string) {
	if j.Status.Terminal() {
		return
	}
	delete(s.parked, j.ID)
	j.handle = qrm.Handle{}
	j.Result = rec
	j.Error = errMsg
	j.parkSpan.End()
	if errMsg != "" {
		j.rootSpan.End(trace.Str("outcome", string(st)), trace.Str("error", errMsg))
	} else {
		j.rootSpan.End(trace.Str("outcome", string(st)))
	}
	if j.tr != nil {
		s.retainTraceLocked(j)
	}
	s.transitionLocked(j, st, "")
	switch st {
	case JobDone:
		s.completed++
	case JobFailed:
		if errMsg == qrm.ErrShedMsg {
			s.shed++
		} else {
			s.failures++
		}
	case JobCancelled:
		s.cancelled++
	}
	close(j.done)
	s.cond.Broadcast()
}

// DefaultTraceRetention bounds how many terminal-job traces the scheduler
// keeps for GET /jobs/{id}/trace.
const DefaultTraceRetention = 256

// retainTraceLocked pushes a terminal job's trace into the retention ring,
// evicting the oldest when full. Caller holds s.mu.
func (s *Scheduler) retainTraceLocked(j *Job) {
	s.traceSpanDrop += j.tr.Dropped()
	if s.traceCap < 1 {
		j.tr, j.rootSpan, j.parkSpan = nil, nil, nil
		return
	}
	if len(s.traceRing) >= s.traceCap {
		old := s.traceRing[0]
		s.traceRing = s.traceRing[1:]
		if oj, ok := s.jobs[old]; ok {
			oj.tr, oj.rootSpan, oj.parkSpan = nil, nil, nil
		}
	}
	s.traceRing = append(s.traceRing, j.ID)
}

// SetTraceRetention resizes the terminal-trace ring (0 disables retention),
// evicting oldest-first when shrinking.
func (s *Scheduler) SetTraceRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceCap = n
	for len(s.traceRing) > n {
		old := s.traceRing[0]
		s.traceRing = s.traceRing[1:]
		if oj, ok := s.jobs[old]; ok {
			oj.tr, oj.rootSpan, oj.parkSpan = nil, nil, nil
		}
	}
}

// Trace returns a fleet job's span tree, or nil when unknown, untraced, or
// evicted from retention. Safe to snapshot concurrently with eviction.
func (s *Scheduler) Trace(id int) *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.tr
	}
	return nil
}

// TraceStats reports retained-trace count and spans lost to per-job slab
// exhaustion across terminal jobs.
func (s *Scheduler) TraceStats() (retained int, spanDrops uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traceRing), s.traceSpanDrop
}

// dispatchParkedLocked retries every parked job; jobs with still no eligible
// device simply park again.
func (s *Scheduler) dispatchParkedLocked() {
	if len(s.parked) == 0 {
		return
	}
	ids := make([]int, 0, len(s.parked))
	for id := range s.parked {
		ids = append(ids, id)
	}
	// Oldest first: parking must not reorder a backlog indefinitely.
	sort.Ints(ids)
	for _, id := range ids {
		j := s.parked[id]
		delete(s.parked, id)
		s.routeLocked(j, nil, "unparked")
	}
}

// Job returns a copy of the fleet job record. A routed job comes back
// refined from its live device leg (read after s.mu is released — Manager.mu
// is never taken under it): Result is the leg's record as it stands and
// Status reads running once a dispatch worker is executing it.
func (s *Scheduler) Job(id int) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %d", ErrNoJob, id)
	}
	cp, h := *j, j.handle
	s.mu.Unlock()
	if cp.Status != JobRouted {
		return &cp, nil
	}
	return refined(cp, h.Record()), nil
}

// refined relabels a private copy of a routed job from its device leg. It
// takes the job by value: what it writes can never be a scheduler record.
func refined(cp Job, leg *qrm.Job) *Job {
	cp.Result = leg
	if leg.Status == qrm.StatusRunning {
		cp.Status = JobRunning
	}
	return &cp
}

// Wait blocks until the job settles (done, failed, or cancelled — possibly
// after migrations) and returns its record.
func (s *Scheduler) Wait(id int) (*Job, error) {
	return s.WaitContext(context.Background(), id)
}

// WaitContext is Wait with caller-controlled cancellation: it returns the
// context's error as soon as ctx is done, leaving the job in flight.
func (s *Scheduler) WaitContext(ctx context.Context, id int) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %d", ErrNoJob, id)
	}
	ch := j.done
	s.mu.Unlock()
	select {
	case <-ch:
		return s.Job(id)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ListJobs returns up to limit fleet job copies with ID strictly below
// beforeID (0 = newest first), filtered by user and status set (nil = any);
// more reports whether older matches remain. The cursor primitive behind
// the v2 paginated listing. Pages carry the stored status — no device leg is
// read — so a filter naming running matches routed jobs.
func (s *Scheduler) ListJobs(user string, states map[JobStatus]bool, beforeID, limit int) (jobs []*Job, more bool) {
	if limit < 1 {
		limit = 20
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.jobOrder) - 1; i >= 0; i-- {
		j := s.jobs[s.jobOrder[i]]
		if beforeID > 0 && j.ID >= beforeID {
			continue
		}
		if user != "" && j.Request.User != user {
			continue
		}
		if states != nil && !states[j.Status] && !(j.Status == JobRouted && states[JobRunning]) {
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

// Cancel cancels a parked job immediately, and propagates cancellation of a
// routed job into its device's dispatch pipeline: still-queued device jobs
// cancel at once, in-flight ones are flagged and terminate cancelled at the
// next stage boundary (qrm.Handle.Cancel semantics). The fleet record
// settles as cancelled either way.
func (s *Scheduler) Cancel(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w %d", ErrNoJob, id)
	}
	if j.Status.Terminal() {
		return fmt.Errorf("fleet: job %d %w %s", id, ErrJobTerminal, j.Status)
	}
	if j.Status == JobRouted {
		if err := j.handle.Cancel(); err != nil {
			// The leg settled and its monitor has not taken s.mu yet.
			return fmt.Errorf("fleet: job %d %w settled on its device: %v", id, ErrJobTerminal, err)
		}
	}
	// A routed job's monitor will observe the device-level cancellation, but
	// settle the fleet record now so the caller sees it immediately.
	s.finalizeLocked(j, JobCancelled, nil, "")
	return nil
}

// Drain takes a device out of routing: its queued jobs migrate to siblings
// (in-flight circuits finish — the control electronics complete what is on
// the wire) and no new work routes to it until Resume.
func (s *Scheduler) Drain(name string) error {
	return s.drainAs(name, DeviceDraining)
}

// Fail marks a device faulted: same drain semantics, but jobs that fail on
// it mid-flight are failed over to siblings instead of being reported as
// job errors, and the device stays excluded until Recover.
func (s *Scheduler) Fail(name string) error {
	return s.drainAs(name, DeviceFailed)
}

func (s *Scheduler) drainAs(name string, st DeviceState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return fmt.Errorf("fleet: unknown device %q", name)
	}
	e.state = st
	// SetOnline(false) interrupts the device's queued jobs; their monitors
	// pick the interruptions up and migrate them as soon as we release the
	// fleet lock.
	e.mgr.SetOnline(false)
	return nil
}

// Resume returns a drained (or recovered) device to routing and dispatches
// any parked jobs that now fit.
func (s *Scheduler) Resume(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumeLocked(name)
}

// Recover is Resume for a failed device (semantic alias, kept separate so
// call sites read correctly).
func (s *Scheduler) Recover(name string) error { return s.Resume(name) }

func (s *Scheduler) resumeLocked(name string) error {
	e, ok := s.devices[name]
	if !ok {
		return fmt.Errorf("fleet: unknown device %q", name)
	}
	e.state = DeviceActive
	e.mgr.SetOnline(true)
	s.dispatchParkedLocked()
	return nil
}

// DeviceManager exposes a registered device's QRM (tests and local HPC-path
// clients).
func (s *Scheduler) DeviceManager(name string) (*qrm.Manager, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown device %q", name)
	}
	return e.mgr, nil
}

// DeviceHandle exposes a registered device's QDMI handle.
func (s *Scheduler) DeviceHandle(name string) (*qdmi.Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown device %q", name)
	}
	return e.dev, nil
}

// WaitSettled blocks until no job is queued or routed.
func (s *Scheduler) WaitSettled() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		busy := false
		for _, j := range s.jobs {
			if !j.Status.Terminal() {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		s.cond.Wait()
	}
}

// Stop shuts the fleet down: parked jobs fail, device pools drain their
// in-flight work and stop, and every monitor goroutine exits. Stop is
// idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	entries := make([]*deviceEntry, 0, len(s.devices))
	for _, name := range s.order {
		entries = append(entries, s.devices[name])
	}
	for id, j := range s.parked {
		delete(s.parked, id)
		s.finalizeLocked(j, JobFailed, nil, "fleet: scheduler stopped")
	}
	s.mu.Unlock()
	for _, e := range entries {
		// Interrupt queued jobs (monitors finalize them as failed under the
		// closed flag), then stop the pool, letting in-flight jobs finish.
		e.mgr.SetOnline(false)
		e.mgr.Stop()
	}
	s.wg.Wait()
	// Every job is settled and its terminal event published; release watch
	// subscribers.
	s.bus.Close()
}
