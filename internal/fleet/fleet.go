// Package fleet is the multi-QPU scheduler the MQSS/QDMI architecture
// (§2.6, Fig. 2) was designed to enable: one HPC-side scheduler serving N
// heterogeneous backends. Submissions enter one tenant-fair queue (wfq.go).
// Each registered device runs a pool of workers that claim from it the first
// job in fair order the device may take — the device is eligible (active,
// pin, width) and the routing policy (best-fidelity, least-loaded,
// round-robin), evaluated at claim time over every eligible device, names
// it — and run the job inline: JIT compile against the live calibration
// epoch, execute, settle (dispatch.go). Binding a job to a device at the
// last moment means a queued job never holds a stale placement and never
// has to move.
//
// The scheduler owns the paper's operational realities at fleet scale:
// calibration slots and §3.4 maintenance windows drain a device — it stops
// claiming, and what it is running finishes — device faults fail one over,
// sending a job whose execution failed on it back to the queue, and a job
// no device may take waits in the queue until one returns: no submission is
// ever lost. Per-device telemetry (routed/migrated/failed counters,
// fidelity-score histograms, compile-map hits, stage latencies) publishes
// into telemetry.Store and the REST metrics endpoint.
package fleet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tenant"
	"repro/internal/transpile"
)

// DeviceState tracks a backend through the fleet lifecycle.
type DeviceState string

const (
	// DeviceActive devices claim queued work.
	DeviceActive DeviceState = "active"
	// DeviceDraining devices were drained by an operator: they claim
	// nothing until Resume.
	DeviceDraining DeviceState = "draining"
	// DeviceMaintenance devices are inside a §3.4 maintenance (or
	// calibration) window; AdvanceTo restores them when the window closes.
	DeviceMaintenance DeviceState = "maintenance"
	// DeviceFailed devices faulted: they claim nothing until Recover, and a
	// job whose execution fails on one goes back to the queue.
	DeviceFailed DeviceState = "failed"
)

// Job is the fleet's record of one submission: the routing envelope plus
// what the device that ran it produced, under Result.
type Job struct {
	ID int `json:"id"`
	// Status is written by transitionLocked only (lifecycle.go).
	Status JobStatus `json:"status"`
	// Device is the backend running (or that ran) the job; empty while the
	// job is queued.
	Device string `json:"device,omitempty"`
	// Migrations counts failover re-queues this job survived.
	Migrations int `json:"migrations,omitempty"`
	// Score is the fidelity estimate the router computed for the device
	// that claimed the job.
	Score   float64     `json:"score,omitempty"`
	Pinned  string      `json:"pinned,omitempty"`
	Request qrm.Request `json:"request"`
	// Result is what the claiming device produced: its compile artefacts
	// once the job compiled, final once the job is terminal. Nil before
	// the compile (a failover re-queue clears it), and on a job cancelled
	// or settled without a run.
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`

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

	// enqueued is when the job last entered the queue: its dispatch
	// deadline, its queue wait and its WFQ aging count from there.
	// submitTime is its submission on the simulation clock.
	enqueued   time.Time
	submitTime float64
	// cancelReq marks a cancel requested while a worker holds the job; it
	// is honoured before the QPU round-trip and again when the result is
	// settled, so a cancel always beats a result.
	cancelReq bool
	// scores memoizes the router's fidelity estimate per device
	// (score.go).
	scores []scored

	// tr is the job's span tree, owned (and retained at terminal) by the
	// scheduler. rootSpan is its root; qwSpan covers the job's current wait
	// in the queue. Each claim adds a "route" span and an "on-device" leg
	// span under the root, so a failover shows up as successive legs. All
	// zero with tracing disabled.
	tr       *trace.Trace
	rootSpan trace.Span
	qwSpan   trace.Span

	// watchers are the feeds Watch attached to the job, guarded by
	// Scheduler.mu; its terminal event closes them (events.go).
	watchers []*Subscription
}

// Result is a device run's output. Its fields keep the names of the device
// leg records older journals carry, so those decode into it.
type Result struct {
	// Compilation artefacts (§4: transparency into compilation was an
	// explicit user request).
	CompiledGates int              `json:"compiled_gates,omitempty"`
	CZCount       int              `json:"cz_count,omitempty"`
	Layout        transpile.Layout `json:"layout,omitempty"`
	CompileStats  string           `json:"compile_stats,omitempty"`

	Counts     circuit.Counts `json:"counts,omitempty"`
	DurationUs float64        `json:"duration_us,omitempty"`

	// Submission and settlement instants on the fleet's simulation clock.
	SubmitTime float64 `json:"submit_time"`
	EndTime    float64 `json:"end_time,omitempty"`
}

// expired reports whether the job's dispatch deadline passed in the queue.
func (j *Job) expired(now time.Time) bool {
	return j.Request.DeadlineMs > 0 &&
		float64(now.Sub(j.enqueued).Microseconds())/1000 > j.Request.DeadlineMs
}

// SubmitOptions tune one submission.
type SubmitOptions struct {
	// Device pins the job to one backend: only that backend may claim it,
	// so it waits while the backend is unavailable.
	Device string
	// Policy overrides the scheduler default for this job.
	Policy Policy
	// IdemKey makes the submission replay-safe: a second submission of the
	// same request under the same key by the same tenant (Request.User),
	// within the dedup window, returns the first one's job instead of
	// minting another; another request under it is ErrKeyReused. Another
	// tenant's same key is its own. Empty never dedups.
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
	idx     int // position in Scheduler.order; indexes Job.scores
	dev     *qdmi.Device
	workers int
	state   DeviceState
	// wake is where the device's idle workers wait (bound to
	// Scheduler.mu): signalled for a queued job the policy sends here,
	// broadcast when any claim may have changed (wakeAllLocked).
	wake *sync.Cond

	// Guarded by Scheduler.mu: jobs its workers hold, and what became of
	// the jobs they claimed.
	inflight    int
	routed      uint64
	migratedOut uint64
	completed   uint64
	failed      uint64 // includes expired
	cancelled   uint64
	expired     uint64

	// The dispatch pipeline's own figures, kept with s.mu released:
	// compile-map lookups and the stage latencies in milliseconds.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	queueWait   *telemetry.Histogram // entering the queue to the claim
	compile     *telemetry.Histogram // per compile-map miss
	exec        *telemetry.Histogram // per device round-trip
	e2e         *telemetry.Histogram // entering the queue to a done result

	scoreHist   *telemetry.Histogram
	regionMemo  map[int]float64 // width -> mean pairwise region distance (score.go)
	maintenance []MaintenanceWindow
}

// Scheduler is the fleet: registry, queue and router.
type Scheduler struct {
	mu sync.Mutex
	// settled wakes WaitSettled whenever a job is sealed (bound to mu).
	settled *sync.Cond

	policy  Policy
	devices map[string]*deviceEntry
	order   []string // registration order; round-robin walks it
	rr      int

	nextID  int
	idLimit int    // last mintable ID, inclusive (0 = unbounded; SetOwner)
	nodeID  string // federation ownership stamp for new jobs ("" standalone)
	// jobs holds the live jobs, none of them terminal: a job is sealed
	// (sealed.go) in the lock hold that ends it (finalizeLocked). arena has
	// the sealed ones' records and the index of every job in ID order
	// (index.go), sealBuf the buffer a terminal job's stored record is
	// encoded into under s.mu (and, between seals, a keyed replay's
	// circuit); users numbers the users jobs were submitted under, so an
	// index entry names its user without a pointer.
	jobs    map[int]*Job
	arena   *arena
	sealBuf []byte
	users   map[string]uint32
	queue   fairQueue // every queued job; the per-tenant rows live here
	nowDay  float64   // simulation clock, last AdvanceTo day

	// The Idempotency-Key dedup window: (tenant, key) -> the job it is bound
	// to for the newest idemWindow keyed jobs, idemOrder the bindings in FIFO
	// eviction order.
	idem      map[idemKey]keyed
	idemOrder []binding

	scoreHist *telemetry.Histogram

	// Event delivery (events.go): published numbers the events, dropped
	// counts deliveries lost to full feeds, watches the open feeds and
	// visits the feeds a publish went through. observe, set by tests only,
	// sees every event as it is published.
	published, dropped, visits uint64
	watches                    int
	observe                    func(Event)

	illegal    uint64 // transitions taken that the lifecycle table does not list
	scoreEvals uint64 // fidelity estimates computed: score memo misses
	restored   RestoreStats

	// admission bounds the queue; zero values = unbounded, the default.
	admission tenant.Admission

	closed bool
	wg     sync.WaitGroup // device workers

	// Durable job store (nil = in-memory only). walTail is the LSN of the
	// most recent record journaled under s.mu; a new job's submitter takes it
	// as the LSN to wait on after unlocking, so a returned ID implies the
	// submission is on disk.
	jstore  JobStore
	walTail uint64

	// Trace retention: the traces of the last traceCap terminal jobs, oldest
	// first. In-flight snapshot readers keep evicted traces alive via their
	// own pointer, so no coordination beyond s.mu is needed.
	traceRing     []retainedTrace
	traceCap      int
	traceSpanDrop uint64
}

// idemKey is what an Idempotency-Key binds: the key as one tenant sent it.
// Another tenant's same key is another binding.
type idemKey struct{ user, key string }

// keyed is the job an Idempotency-Key is bound to and the journal LSN its
// submitter waited on before acking it, the mint's last record: a replay of
// the key waits on the same LSN. Zero for a restored job: it was on disk
// before this process started.
type keyed struct {
	id     int
	ackLSN uint64
}

// binding is one Idempotency-Key of the dedup window and the job it names.
type binding struct {
	key idemKey
	id  int
}

// retainedTrace is one terminal job's trace in the retention ring.
type retainedTrace struct {
	id int
	tr *trace.Trace
}

// New builds an empty fleet under the given default policy. The store
// argument is unused: it stays until the layer bench stops passing one.
func New(policy Policy, _ *telemetry.Store) *Scheduler {
	s := &Scheduler{
		policy:    policy,
		devices:   make(map[string]*deviceEntry),
		jobs:      make(map[int]*Job),
		users:     make(map[string]uint32),
		queue:     newFairQueue(),
		idem:      make(map[idemKey]keyed),
		scoreHist: scoreHistogram(),
		arena:     newArena(),
		traceCap:  DefaultTraceRetention,
	}
	s.settled = sync.NewCond(&s.mu)
	return s
}

// JobStore is the durability boundary behind the fleet scheduler (declared
// locally so fleet stays free of a durable import); internal/durable's
// WAL-backed Store implements it. Every fleet transition is journaled:
// the submission as the job's full record (JournalFleetJob, request and
// Idempotency-Key binding included), every later one — claim, failover,
// restore, terminal — as an update (JournalFleetUpdate) holding only the
// fields a transition after the submission may change: status, device,
// migrations, score, result, error, recovered, and the submission instant
// on a recovered job. transitionLocked picks between the two.
//
// An update's result is j.Result's JSON object, the bytes
// Result.AppendJSON writes, as the scheduler rendered it for the terminal
// move from the job's stored record, nil for a move without one: only a
// terminal move carries a result, and the store splices it in rather than
// render the counts again.
type JobStore interface {
	JournalFleetJob(j *Job) (lsn uint64)
	JournalFleetUpdate(j *Job, result []byte) (lsn uint64)
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

// AddDevice registers a backend under a unique name and starts its workers,
// which claim queued jobs from then on.
func (s *Scheduler) AddDevice(name string, dev *qdmi.Device, workers int) error {
	if name == "" {
		return fmt.Errorf("fleet: device name must be non-empty")
	}
	if workers < 1 {
		return fmt.Errorf("fleet: device %q needs >= 1 workers, got %d", name, workers)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("fleet: scheduler stopped")
	}
	if _, dup := s.devices[name]; dup {
		return fmt.Errorf("fleet: device %q already registered", name)
	}
	ms := telemetry.ExponentialBounds(0.01, 2, 24) // 10 µs .. ~84 s
	e := &deviceEntry{
		name: name, idx: len(s.order), dev: dev, workers: workers,
		state:      DeviceActive,
		wake:       sync.NewCond(&s.mu),
		queueWait:  newHistogram(ms),
		compile:    newHistogram(ms),
		exec:       newHistogram(ms),
		e2e:        newHistogram(ms),
		scoreHist:  scoreHistogram(),
		regionMemo: make(map[int]float64),
	}
	s.devices[name] = e
	s.order = append(s.order, name)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.serve(e)
	}
	s.wakeAllLocked() // the newcomer may out-score the devices queued jobs were waiting for
	return nil
}

// ActiveDevices counts backends currently claiming work — the cheap health
// signal (Metrics snapshots every per-device histogram).
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

// SetOwner makes the scheduler federation member node, owner of the job-ID
// block (base, limit]: every future job ID is > base, every new record is
// stamped node, and submissions are refused once limit (inclusive) is
// minted. Spilling past limit would land IDs in the next member's block and
// silently misroute owner lookups, so exhaustion is a hard refusal, not a
// wrap. Like Restore the call only ever raises the counter, so the two
// compose in either order. mqss.Server.AttachFederation is its caller.
func (s *Scheduler) SetOwner(node string, base, limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodeID, s.idLimit = node, limit
	if base > s.nextID {
		s.nextID = base
	}
}

// SetAdmission installs the queue's depth bounds (tenant.Admission zero
// values disable each bound). They apply to subsequent submissions; an
// already-full queue is not retroactively shed.
func (s *Scheduler) SetAdmission(a tenant.Admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admission = a
}

// Admission returns the queue's depth bounds.
func (s *Scheduler) Admission() tenant.Admission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admission
}

// TenantUsage snapshots per-tenant accounting, sorted by user. Each
// submission counts once, whatever it went through, so the rows conserve:
// submitted == completed + failed + cancelled + shed + interrupted + queued
// once no job is running.
func (s *Scheduler) TenantUsage() []tenant.Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.usage()
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

// Submit validates and queues one job. The job ID is fleet-scoped. The
// scheduler keeps req.Circuit and reads it until the job is sealed, before
// Wait returns: a caller must not modify a submitted circuit until then.
func (s *Scheduler) Submit(req qrm.Request, opts SubmitOptions) (int, error) {
	id, _, err := s.SubmitKeyed(req, opts)
	return id, err
}

// SubmitKeyed is Submit that also reports whether opts.IdemKey replayed an
// earlier submission of req.User's: replayed means the returned ID is the
// job that tenant's key was first bound to and nothing new was minted. The
// same key with another request is ErrKeyReused (sameRequestLocked).
// Only successful submissions bind — a refused one created no job, so there
// is nothing to protect from duplication, and binding a transient refusal
// would turn a retryable response into a permanently replayed failure.
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
	// NaN and +Inf have no JSON spelling: the job could never be journaled.
	if d := req.DeadlineMs; !(d >= 0) || math.IsInf(d, 1) {
		return 0, false, fmt.Errorf("fleet: deadline_ms must be finite and >= 0, got %g", req.DeadlineMs)
	}
	policy := s.policy
	if opts.Policy != "" {
		if err := opts.Policy.Validate(); err != nil {
			return 0, false, err
		}
		policy = opts.Policy
	}
	s.mu.Lock()
	bound, replayed := s.idem[idemKey{req.User, opts.IdemKey}] // "" is never bound
	if replayed && !s.sameRequestLocked(bound.id, &req, opts.Device) {
		s.mu.Unlock()
		return 0, false, fmt.Errorf("%w: the key is bound to job %d", ErrKeyReused, bound.id)
	}
	if !replayed {
		if bound, err = s.mintLocked(req, opts, policy); err != nil {
			s.mu.Unlock()
			return 0, false, err
		}
	}
	st := s.jstore
	s.mu.Unlock()
	if st != nil {
		// Ack-after-durable: the ID is not returned until the submit record
		// — which carries the key binding — is on stable storage, so a 202
		// implies the job survives kill -9 still bound to its key. A replay
		// waits on the LSN its original waited on, so it is never acked
		// ahead of it. The wait is outside s.mu so group commit batches
		// concurrent submitters, keyed or not, behind one fsync.
		st.WaitDurable(bound.ackLSN)
	}
	return bound.id, replayed, nil
}

// mintLocked admits req, mints its job, queues it, shedding past the
// admission bounds, and binds opts.IdemKey to it. It returns the job and
// the LSN its submitter acks after. Caller holds s.mu and has found the key
// unbound.
func (s *Scheduler) mintLocked(req qrm.Request, opts SubmitOptions, policy Policy) (keyed, error) {
	if s.idLimit > 0 && s.nextID >= s.idLimit {
		return keyed{}, fmt.Errorf("fleet: job-ID space exhausted: this node's federation ID block ends at %d; minting past it would misroute owner lookups", s.idLimit)
	}
	if err := s.admitLocked(req, opts); err != nil {
		return keyed{}, err
	}
	s.nextID++
	j := &Job{
		ID: s.nextID, Request: req,
		Pinned: opts.Device, policy: policy, done: make(chan struct{}),
		SubmitUnixMs: time.Now().UnixMilli(), Node: s.nodeID, IdemKey: opts.IdemKey,
		submitTime: s.nowDay * 86400,
	}
	j.tr = trace.New("job",
		trace.Int("job_id", j.ID), trace.Str("user", req.User))
	j.rootSpan = j.tr.Root()
	s.addLocked(j)
	s.queue.stats(req.User).Submitted++
	s.transitionLocked(j, JobQueued, "", nil)
	s.enqueueLocked(j)
	s.shedOverLimitLocked(req.User)
	// The submitter acks once everything the mint journaled is durable, a
	// shed included, and a replay of its key waits on the same LSN.
	k := keyed{j.ID, s.walTail}
	s.bindLocked(j, k.ackLSN)
	return k, nil
}

// addLocked enters a new live job into the table and the index. Caller
// holds s.mu.
func (s *Scheduler) addLocked(j *Job) {
	s.jobs[j.ID] = j
	user, ok := s.users[j.Request.User]
	if !ok {
		user = uint32(len(s.users))
		s.users[j.Request.User] = user
	}
	s.arena.index.push(entry{id: j.ID, user: user})
}

// bindLocked enters a keyed job into the dedup window under its tenant and
// key, with the LSN a replay of the key waits on, evicting the oldest
// binding past idemWindow. Caller holds s.mu.
func (s *Scheduler) bindLocked(j *Job, ackLSN uint64) {
	if j.IdemKey == "" {
		return
	}
	k := idemKey{j.Request.User, j.IdemKey}
	s.idem[k] = keyed{j.ID, ackLSN}
	s.idemOrder = append(s.idemOrder, binding{k, j.ID})
	for len(s.idemOrder) > idemWindow {
		// A key that aged out and was submitted fresh is carried by two
		// recovered jobs; evicting the older one must not unbind the newer.
		if old := s.idemOrder[0]; s.idem[old.key].id == old.id {
			delete(s.idem, old.key)
		}
		s.idemOrder[0] = binding{}
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

// enqueueLocked puts a queued job on the queue and wakes one idle worker
// of the device its policy sends it to, if that device has one; a busy
// device's workers rescan the queue before they wait again. Caller holds
// s.mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	j.enqueued = time.Now()
	j.qwSpan = j.rootSpan.StartChild("queue-wait")
	s.queue.push(j)
	if e, _ := s.pickLocked(j); e != nil {
		e.wake.Signal()
	}
}

// wakeAllLocked wakes every idle worker: a device's state or load changed,
// so any queued job's choice of device may have. Caller holds s.mu.
func (s *Scheduler) wakeAllLocked() {
	for _, e := range s.devices {
		e.wake.Broadcast()
	}
}

// shedOverLimitLocked enforces the admission bounds after a push: first
// the submitting tenant's own depth cap, then the global high-water mark.
// Victims are the most sheddable queued jobs (lowest priority, newest) —
// possibly the job just submitted — failed with the retryable shed error
// so their waiters see them fail loudly rather than vanish.
func (s *Scheduler) shedOverLimitLocked(user string) {
	shed := func(j *Job) {
		s.queue.remove(j)
		s.finalizeLocked(j, JobFailed, nil, qrm.ErrShedMsg)
	}
	if a := s.admission.MaxTenantQueue; a > 0 {
		for s.queue.depth(user) > a {
			shed(s.queue.worstOf(user))
		}
	}
	if a := s.admission.HighWater; a > 0 {
		for s.queue.Len() > a {
			shed(s.queue.worst())
		}
	}
}

// finalizeLocked makes live job j terminal, with rec as its final result
// (nil when it never ran to one), in one hold of s.mu: the job's stored
// record is encoded once, into s.sealBuf; the move is journaled with the
// result's JSON rendered from those bytes, published and counted in the
// tenant's row; the same bytes are sealed; and only then are j's waiters
// released. So no reader ever finds a terminal job live. Caller holds s.mu.
func (s *Scheduler) finalizeLocked(j *Job, st JobStatus, rec *Result, errMsg string) {
	if rec != nil {
		rec.EndTime = s.nowDay * 86400
	}
	j.Result = rec
	j.Error = errMsg
	j.scores = nil
	j.qwSpan.End() // a job settled in the queue closes its wait
	if errMsg != "" {
		j.rootSpan.End(trace.Str("outcome", string(st)), trace.Str("error", errMsg))
	} else {
		j.rootSpan.End(trace.Str("outcome", string(st)))
	}
	if j.tr != nil {
		s.retainTraceLocked(j)
	}
	b, own := j.appendStored(s.sealBuf[:0])
	n := len(b)
	var res []byte
	if rec != nil && s.jstore != nil {
		// The render appends past n, so it never writes the bytes it reads.
		r := readStored(b[:n])
		r.toResult()
		var err error
		if b, err = appendResultFields(append(b, '{'), &r); err != nil {
			// Every float of a result was computed by the engine or checked
			// finite at submission: a result that cannot be written is a bug.
			panic(fmt.Sprintf("fleet: job %d: %v", j.ID, err))
		}
		res = append(b, '}')[n:]
	}
	s.transitionLocked(j, st, "", res)
	// Per-tenant accounting: this is the single terminal choke point, so
	// every outcome lands in exactly one tenant counter.
	ts := s.queue.stats(j.Request.User)
	switch {
	case st == JobDone:
		ts.Completed++
	case st == JobCancelled:
		ts.Cancelled++
	case errMsg == qrm.ErrShedMsg:
		ts.Shed++
	case errMsg == qrm.ErrInterruptedMsg:
		ts.Interrupted++
	default:
		ts.Failed++
	}
	s.sealLocked(j, b[:n], own)
	close(j.done)
}

// DefaultTraceRetention bounds how many terminal-job traces the scheduler
// keeps for GET /jobs/{id}/trace.
const DefaultTraceRetention = 256

// retainTraceLocked pushes a terminal job's trace into the retention ring,
// evicting the oldest when full. Caller holds s.mu.
func (s *Scheduler) retainTraceLocked(j *Job) {
	s.traceSpanDrop += j.tr.Dropped()
	if s.traceCap < 1 {
		j.tr, j.rootSpan, j.qwSpan = nil, trace.Span{}, trace.Span{}
		return
	}
	if len(s.traceRing) >= s.traceCap {
		s.evictOldestTraceLocked()
	}
	s.traceRing = append(s.traceRing, retainedTrace{j.ID, j.tr})
}

// evictOldestTraceLocked drops the oldest retained trace. Caller holds s.mu.
func (s *Scheduler) evictOldestTraceLocked() {
	s.traceRing[0] = retainedTrace{}
	s.traceRing = s.traceRing[1:]
}

// SetTraceRetention resizes the terminal-trace ring (0 disables retention),
// evicting oldest-first when shrinking.
func (s *Scheduler) SetTraceRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceCap = n
	for len(s.traceRing) > n {
		s.evictOldestTraceLocked()
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
	for i := len(s.traceRing) - 1; i >= 0; i-- {
		if s.traceRing[i].id == id {
			return s.traceRing[i].tr
		}
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

// Job returns a copy of the fleet job record, a sealed job's decoded from
// its record; a routed job that compiled reads running.
func (s *Scheduler) Job(id int) (*Job, error) {
	v, err := s.View(id, true, nil)
	if err != nil || v.Live != nil {
		return v.Live, err
	}
	return v.Sealed.Job()
}

// refined relabels a private copy of a routed job that is past its compile
// (its result is published then, dispatch.go). It takes the job by value:
// what it writes can never be a scheduler record.
func refined(cp Job) *Job {
	cp.Status = cp.shownStatus()
	return &cp
}

// shownStatus is j's status as Job reports it.
func (j *Job) shownStatus() JobStatus {
	if j.Status == JobRouted && j.Result != nil {
		return JobRunning
	}
	return j.Status
}

// Peek reads what a watch stream opens with — job id's status as Job
// reports it, its device, and whether it was recovered — without copying a
// live job or decoding a sealed one: a sealed record's head is lexed in the
// arena, under the lock, and only the device name is copied out.
func (s *Scheduler) Peek(id int) (st JobStatus, device string, recovered bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peekLocked(id)
}

// peekLocked is Peek. Caller holds s.mu.
func (s *Scheduler) peekLocked(id int) (st JobStatus, device string, recovered bool, err error) {
	if j, ok := s.jobs[id]; ok {
		return j.shownStatus(), j.Device, j.Recovered, nil
	}
	e := s.findLocked(id)
	if e == nil {
		return "", "", false, fmt.Errorf("%w %d", ErrNoJob, id)
	}
	h, err := s.headLocked(e)
	return sealedStates[e.state], strings.Clone(h.Device), h.Recovered, err
}

// Wait blocks until the job settles (done, failed, or cancelled — possibly
// after failovers) and returns its record.
func (s *Scheduler) Wait(id int) (*Job, error) {
	return s.WaitContext(context.Background(), id)
}

// WaitContext is Wait with caller-controlled cancellation: it returns the
// context's error as soon as ctx is done, leaving the job in flight.
func (s *Scheduler) WaitContext(ctx context.Context, id int) (*Job, error) {
	j, err := s.await(ctx, id)
	switch {
	case err != nil:
		return nil, err
	case j == nil: // sealed before the call
		return s.Job(id)
	}
	// Nothing writes a job once it is terminal (sealing drops it instead),
	// and its done channel closed once it was sealed.
	cp := *j
	return &cp, nil
}

// Await blocks until job id is terminal, or returns ctx's error once ctx is
// done first. It reads nothing of the job: View does, after it.
func (s *Scheduler) Await(ctx context.Context, id int) error {
	_, err := s.await(ctx, id)
	return err
}

// await is Await that returns the live job it waited on, nil when the job
// was sealed before the call.
func (s *Scheduler) await(ctx context.Context, id int) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		sealed := s.findLocked(id) != nil
		s.mu.Unlock()
		if !sealed {
			return nil, fmt.Errorf("%w %d", ErrNoJob, id)
		}
		return nil, nil
	}
	ch := j.done
	s.mu.Unlock()
	select {
	case <-ch:
		return j, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ListViews returns up to limit job views with ID strictly below beforeID
// (0 = newest first), filtered by user and status set (nil = any); more
// reports whether older matches remain. Views carry the stored status, so a
// filter naming running matches routed jobs. The sealed views' records are
// copied into *buf from its start, as View copies one, with or without
// their requests; a view copied before an append grew *buf keeps the earlier
// array. It is the cursor primitive behind the v2 paginated listing.
func (s *Scheduler) ListViews(user string, states map[JobStatus]bool, beforeID, limit int, withRequest bool, buf *[]byte) (views []View, more bool) {
	if limit < 1 {
		limit = 20
	}
	if buf != nil {
		*buf = (*buf)[:0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	num, known := s.users[user]
	if user != "" && !known {
		return nil, false
	}
	x := &s.arena.index
	top := x.len()
	if beforeID > 0 {
		top = x.search(beforeID)
	}
	for i := top - 1; i >= 0; i-- {
		e := x.at(i)
		if user != "" && e.user != num {
			continue
		}
		st := sealedStates[e.state]
		if e.state == 0 {
			st = s.jobs[e.id].Status
		}
		if states != nil && !states[st] && !(st == JobRouted && states[JobRunning]) {
			continue
		}
		if len(views) == limit {
			return views, true
		}
		views = append(views, s.viewLocked(e, withRequest, buf))
	}
	return views, false
}

// Cancel cancels a queued job at once. A job a worker holds has the
// cancellation requested instead: it settles cancelled at the worker's next
// stage boundary — before the QPU round-trip, or in place of the result —
// so Cancel returning nil means the job will end cancelled.
func (s *Scheduler) Cancel(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if e := s.findLocked(id); e != nil {
			return fmt.Errorf("fleet: job %d %w %s", id, ErrJobTerminal, sealedStates[e.state])
		}
		return fmt.Errorf("%w %d", ErrNoJob, id)
	}
	if j.Status == JobRouted {
		j.cancelReq = true
		return nil
	}
	s.queue.remove(j)
	s.finalizeLocked(j, JobCancelled, nil, "")
	return nil
}

// Drain takes a device out of routing: it claims nothing until Resume, and
// the jobs it is running finish — the control electronics complete what is
// on the wire. Queued jobs stay queued for the devices still claiming.
func (s *Scheduler) Drain(name string) error {
	return s.setState(name, DeviceDraining)
}

// Fail marks a device faulted: it claims nothing until Recover, and a job
// whose execution fails on it goes back to the queue for a sibling instead
// of being reported as a job error.
func (s *Scheduler) Fail(name string) error {
	return s.setState(name, DeviceFailed)
}

// Resume returns a drained (or recovered) device to routing.
func (s *Scheduler) Resume(name string) error {
	return s.setState(name, DeviceActive)
}

// Recover is Resume for a failed device (semantic alias, kept separate so
// call sites read correctly).
func (s *Scheduler) Recover(name string) error { return s.Resume(name) }

func (s *Scheduler) setState(name string, st DeviceState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return fmt.Errorf("fleet: unknown device %q", name)
	}
	s.setStateLocked(e, st)
	return nil
}

// setStateLocked moves a device to st and wakes the workers: every queued
// job's choice of device may have changed with it.
func (s *Scheduler) setStateLocked(e *deviceEntry, st DeviceState) {
	e.state = st
	s.wakeAllLocked()
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

// WaitSettled blocks until every job is sealed: none is queued or routed,
// and every terminal one is kept as its record.
func (s *Scheduler) WaitSettled() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) > 0 {
		s.settled.Wait()
	}
}

// Stop shuts the fleet down: queued jobs fail, device workers finish what
// they hold and exit. Stop is idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range s.queue.drain() {
		s.finalizeLocked(j, JobFailed, nil, "fleet: scheduler stopped")
	}
	s.wakeAllLocked()
	s.mu.Unlock()
	// Every job settles before its worker exits, and its terminal event
	// closes its watchers' feeds.
	s.wg.Wait()
}
