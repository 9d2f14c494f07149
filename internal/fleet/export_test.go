package fleet

import (
	"fmt"
	"sync/atomic"
)

// What the package's external tests (package fleet_test, which may import
// the API and durable layers above this package) use to land an event
// between a job's claim and its compile: a window no caller can time.

// claimHook journals through JobStore and runs at, under the scheduler's
// lock, when job id's claim is journaled (an update: only the mint journals
// the whole record).
type claimHook struct {
	JobStore
	id int
	at func(j *Job)
}

func (h claimHook) JournalFleetUpdate(j *Job, res []byte) uint64 {
	if j.ID == h.id && j.Status == JobRouted {
		h.at(j)
	}
	return h.JobStore.JournalFleetUpdate(j, res)
}

// CancelAtClaim wraps st: a Cancel of job id lands right after its claim.
func (s *Scheduler) CancelAtClaim(st JobStore, id int) JobStore {
	return claimHook{st, id, func(j *Job) { j.cancelReq = true }}
}

// FailAtClaim wraps st: the device that claims job id fails right after the
// claim, so a run that errors on it fails over.
func (s *Scheduler) FailAtClaim(st JobStore, id int) JobStore {
	return claimHook{st, id, func(j *Job) { s.setStateLocked(s.devices[j.Device], DeviceFailed) }}
}

// OneCircuitSlot sends every circuit the arena stores from now on to one
// slot of its circuit table, as if all their hashes collided: a circuit then
// matches a stored one only by the byte compare.
func (s *Scheduler) OneCircuitSlot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arena.mask = 0
}

// encoded is a record as Job.appendRecord wrote it: what a sealed job's
// view must read back.
type encoded struct {
	b  []byte
	at recordAt
}

// encodeRecord writes terminal job j's whole record into buf.
func encodeRecord(j *Job, buf []byte) encoded {
	b, at, err := j.appendRecord(buf)
	if err != nil {
		panic(fmt.Sprintf("fleet: job %d: %v", j.ID, err))
	}
	return encoded{b, at}
}

// observeAll hands f every event as it is published, under the scheduler's
// lock: an audit sees each one, in Seq order, and none is dropped.
func (s *Scheduler) observeAll(f func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observe = f
}

// watcherVisits is how many watchers publishes have visited.
func (s *Scheduler) watcherVisits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.visits
}

// CountRenders counts result renders — Result.AppendFields calls, which
// Result.AppendJSON makes too — until the returned function restores the
// renderer and reports the count. Swap it in before the jobs it counts are
// submitted and read it once they are done; tests that call it must not run
// in parallel.
func CountRenders() (stop func() int64) {
	var n atomic.Int64
	render := renderFields
	renderFields = func(r *Result, b []byte) ([]byte, error) {
		n.Add(1)
		return render(r, b)
	}
	return func() int64 {
		renderFields = render
		return n.Load()
	}
}
