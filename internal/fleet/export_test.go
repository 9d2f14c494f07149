package fleet

import (
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

// OneCircuitSlot sends every circuit and every record's shared part the
// arena stores from now on to one slot of its table, as if all their hashes
// collided: one then matches a stored one only by the byte compare.
func (s *Scheduler) OneCircuitSlot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arena.mask = 0
}

// smallIndexPages makes the index's pages hold 1<<shift entries each, so a
// few jobs span several pages. Call it before the scheduler's first job.
func (s *Scheduler) smallIndexPages(shift uint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arena.index.len() > 0 {
		panic("fleet: resizing the pages of a non-empty index")
	}
	s.arena.index.shift = shift
}

// sharedFound counts the sealed records, and those whose shared part the
// arena found in their chunk rather than storing it just before the
// record's own part.
func (s *Scheduler) sharedFound() (sealed, found int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.arena.index.len(); i++ {
		e := s.arena.index.at(i)
		if e.state == 0 {
			continue
		}
		sealed++
		ch := s.arena.chunks[e.chunk]
		shared, _, _ := record(ch, e.rec)
		if &ch[e.rec.off-1] != &shared[len(shared)-1] {
			found++
		}
	}
	return sealed, found
}

// recordJSON is what a sealed view reads back of the whole job: its
// record decoded into the job and written as Job.AppendJSON writes it.
func recordJSON(r Record) ([]byte, error) {
	j, err := r.Job()
	if err != nil {
		return nil, err
	}
	return j.AppendJSON(nil)
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

// CountEncodes counts encodes of a result into its stored form — the
// seal's, and those Result.AppendFields and Result.AppendJSON make to render
// a live one — until the returned function restores the encoder and reports
// the count. Swap it in before the jobs it counts are submitted and read it
// once they are done; tests that call it must not run in parallel.
func CountEncodes() (stop func() int64) {
	var n atomic.Int64
	encode := encodeResult
	encodeResult = func(r *Result, b []byte) ([]byte, int) {
		n.Add(1)
		return encode(r, b)
	}
	return func() int64 {
		encodeResult = encode
		return n.Load()
	}
}
