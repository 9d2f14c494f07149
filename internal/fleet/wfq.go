package fleet

import (
	"container/heap"
	"sort"
	"time"

	"repro/internal/tenant"
)

// This file is the fleet's one weighted-fair dispatch queue: instead of one
// global priority heap that a hot tenant can flood, each tenant keeps its own
// priority heap and claims are arbitrated by virtual-time WFQ. Every claim
// advances the claiming tenant's virtual finish time by one slot (equal
// weights), so a tenant with a thousand queued jobs and a tenant with one
// alternate instead of the flood winning a thousand times. Priority still
// matters across tenants — a job's priority buys its tenant a bounded head
// start — and priority *aging* (effective priority grows with queue wait)
// guarantees a best-effort tenant is never locked out by a deadline-heavy
// one: wait long enough and its key always wins.

const (
	// wfqPrioWeight converts one priority level into virtual-time units of
	// head start. One unit = one claim slot, so priority p jumps at most
	// p*wfqPrioWeight claims ahead — bounded, not absolute, precedence.
	wfqPrioWeight = 0.25
	// wfqAgingMs is the queue wait that buys one effective priority level.
	wfqAgingMs = 250.0
)

// jobQueue is one tenant's priority heap: highest priority first, then
// lowest ID (submission order).
type jobQueue []*Job

func (q jobQueue) Len() int            { return len(q) }
func (q jobQueue) Less(i, j int) bool  { return headLess(q[i], q[j]) }
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

// headLess is the single-queue ordering (priority desc, ID asc), also the
// deterministic tie-break between equal claim keys.
func headLess(a, b *Job) bool {
	if a.Request.Priority != b.Request.Priority {
		return a.Request.Priority > b.Request.Priority
	}
	return a.ID < b.ID
}

// tenantQueue is one tenant's slice of the dispatch queue plus its
// lifetime accounting (kept after the queue drains).
type tenantQueue struct {
	user    string
	q       jobQueue
	vfinish float64 // virtual finish time of this tenant's last claim
	stats   tenant.Usage
}

// fairQueue is the multi-tenant dispatch queue behind Scheduler.queue.
// All methods require the scheduler lock.
type fairQueue struct {
	tenants map[string]*tenantQueue
	size    int
	vclock  float64 // global virtual time: advances with every claim
}

func newFairQueue() fairQueue {
	return fairQueue{tenants: map[string]*tenantQueue{}}
}

func (f *fairQueue) Len() int { return f.size }

func (f *fairQueue) get(user string) *tenantQueue {
	t, ok := f.tenants[user]
	if !ok {
		t = &tenantQueue{user: user}
		f.tenants[user] = t
	}
	return t
}

// stats returns the tenant's mutable accounting row, creating it on first
// touch so counters survive queue drains.
func (f *fairQueue) stats(user string) *tenant.Usage {
	return &f.get(user).stats
}

func (f *fairQueue) push(j *Job) {
	heap.Push(&f.get(j.Request.User).q, j)
	f.size++
}

// depth is one tenant's current queue length.
func (f *fairQueue) depth(user string) int {
	if t, ok := f.tenants[user]; ok {
		return t.q.Len()
	}
	return 0
}

// claimKey ranks a tenant for the next claim: lower wins. The base is the
// tenant's virtual start time (its WFQ turn); the head job's effective
// priority — submitted priority plus one level per wfqAgingMs of queue
// wait — buys a bounded head start.
func (f *fairQueue) claimKey(t *tenantQueue, now time.Time) float64 {
	start := t.vfinish
	if f.vclock > start {
		start = f.vclock
	}
	head := t.q[0]
	eff := float64(head.Request.Priority)
	if wait := now.Sub(head.enqueued); wait > 0 {
		eff += float64(wait.Milliseconds()) / wfqAgingMs
	}
	return start - wfqPrioWeight*eff
}

// firstTaken is the index of the job of t's heap that take accepts and that
// the heap would pop first; -1 when take accepts none. The head is tried
// first: it is the answer whenever the device may take it.
func (t *tenantQueue) firstTaken(take func(*Job) bool) int {
	if take(t.q[0]) {
		return 0
	}
	best := -1
	for i := 1; i < len(t.q); i++ {
		if (best < 0 || headLess(t.q[i], t.q[best])) && take(t.q[i]) {
			best = i
		}
	}
	return best
}

// claim removes and returns the first job in fair order that take accepts:
// the tenant whose turn comes first (lowest claim key, heads breaking ties)
// among those holding such a job, and within it the accepted job its heap
// would pop first. It advances the virtual clocks as every claim does.
// Returns nil when take accepts none. take runs only for tenants that would
// win the turn, so a claim the first candidate accepts costs one call.
func (f *fairQueue) claim(now time.Time, take func(*Job) bool) *Job {
	var best *tenantQueue
	bestAt := -1
	var bestKey float64
	for _, t := range f.tenants {
		if t.q.Len() == 0 {
			continue
		}
		key := f.claimKey(t, now)
		if best != nil && (key > bestKey || (key == bestKey && !headLess(t.q[0], best.q[0]))) {
			continue // its turn comes after the best so far
		}
		if at := t.firstTaken(take); at >= 0 {
			best, bestAt, bestKey = t, at, key
		}
	}
	if best == nil {
		return nil
	}
	j := heap.Remove(&best.q, bestAt).(*Job)
	start := best.vfinish
	if f.vclock > start {
		start = f.vclock
	}
	best.vfinish = start + 1 // equal weights: one claim = one virtual slot
	f.vclock = start
	f.size--
	return j
}

// remove pulls a specific queued job out (cancellation, shedding). Returns
// false when the job is not queued.
func (f *fairQueue) remove(j *Job) bool {
	t, ok := f.tenants[j.Request.User]
	if !ok {
		return false
	}
	for i, q := range t.q {
		if q == j {
			heap.Remove(&t.q, i)
			f.size--
			return true
		}
	}
	return false
}

// drain empties every tenant queue and returns the jobs in ID order
// (deterministic shutdown order).
func (f *fairQueue) drain() []*Job {
	var out []*Job
	for _, t := range f.tenants {
		out = append(out, t.q...)
		t.q = t.q[:0]
	}
	f.size = 0
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// shedWorse orders jobs by shedding preference: lowest priority first,
// then newest submission — the exact inverse of the claim order, so
// shedding always evicts what would run last.
func shedWorse(a, b *Job) bool { return headLess(b, a) }

// worst returns the globally most sheddable queued job (nil when empty).
func (f *fairQueue) worst() *Job {
	var w *Job
	for _, t := range f.tenants {
		for _, j := range t.q {
			if w == nil || shedWorse(j, w) {
				w = j
			}
		}
	}
	return w
}

// worstOf returns one tenant's most sheddable queued job (nil when empty).
func (f *fairQueue) worstOf(user string) *Job {
	t, ok := f.tenants[user]
	if !ok {
		return nil
	}
	var w *Job
	for _, j := range t.q {
		if w == nil || shedWorse(j, w) {
			w = j
		}
	}
	return w
}

// usage snapshots every tenant's accounting row, sorted by user.
func (f *fairQueue) usage() []tenant.Usage {
	out := make([]tenant.Usage, 0, len(f.tenants))
	for _, t := range f.tenants {
		u := t.stats
		u.User = t.user
		u.Queued = t.q.Len()
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}
