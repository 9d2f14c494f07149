package fleet

import "slices"

// This file is how a job's transitions reach its watchers — v2 watch
// streams and tests — without polling the job record. A live job holds its
// own watchers, under Scheduler.mu, and transitionLocked hands each event
// to that job's watchers only, so a publish costs what its own job is
// watched by. Delivery never blocks the scheduler: a watcher that stops
// draining its feed loses events (counted) instead. The terminal event
// closes the job's feeds, so no watcher outlives its job.

// Event is one job lifecycle transition, an edge of the lifecycle table.
type Event struct {
	// Seq is the scheduler-assigned publication order (monotonic, starts
	// at 1), across all jobs.
	Seq uint64 `json:"seq"`
	// JobID is the fleet-scoped job ID.
	JobID int `json:"job_id"`
	// From is the status the job left ("" for the submission event).
	From JobStatus `json:"from,omitempty"`
	// To is the status the job entered.
	To JobStatus `json:"to"`
	// Device names the backend involved, when the publisher knows it.
	Device string `json:"device,omitempty"`
	// Reason qualifies the transition: "migrated" (a failover re-queue) or
	// "recovered" (a re-queue after a restart).
	Reason string `json:"reason,omitempty"`
	// Time is the publisher's simulation clock at the transition.
	Time float64 `json:"time"`
}

// Subscription is one watcher's feed of one job's events. Read from
// Events(); Close when done.
type Subscription struct {
	s   *Scheduler
	job *Job // nil once the feed is closed
	ch  chan Event
}

// Events returns the feed. It closes after the job's terminal event, or on
// Close.
func (w *Subscription) Events() <-chan Event { return w.ch }

// Close detaches the watcher and closes its feed. Idempotent.
func (w *Subscription) Close() {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if j := w.job; j != nil {
		j.watchers = slices.DeleteFunc(j.watchers, func(o *Subscription) bool { return o == w })
		w.s.watches--
		w.job = nil
		close(w.ch)
	}
}

// EventStats is a point-in-time view of event delivery for the metrics
// plane.
type EventStats struct {
	Published    uint64 // events assigned a sequence number
	DroppedTotal uint64 // deliveries lost to full watcher buffers, ever
	Watches      int    // open feeds
}

// EventStats snapshots publication, drop and open-watch counters.
func (s *Scheduler) EventStats() EventStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return EventStats{Published: s.published, DroppedTotal: s.dropped, Watches: s.watches}
}

// Watch reads what a watch stream opens with, as Peek does, and for a job
// that is not terminal attaches a feed of its later events, buffered to
// buffer (minimum 1). Both are taken under one lock, so the feed starts
// with the first transition after the snapshot: none is missed and none
// repeats it. A terminal job yields a nil subscription.
func (s *Scheduler) Watch(id, buffer int) (st JobStatus, device string, recovered bool, sub *Subscription, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, device, recovered, err = s.peekLocked(id)
	if err != nil || st.Terminal() {
		return st, device, recovered, nil, err
	}
	j := s.jobs[id]
	sub = &Subscription{s: s, job: j, ch: make(chan Event, max(buffer, 1))}
	j.watchers = append(j.watchers, sub)
	s.watches++
	return st, device, recovered, sub, nil
}

// publishLocked stamps ev with the next Seq and hands it to the test
// observer, if one is set, and to j's watchers without blocking: a full
// buffer loses the event for that watcher only. The terminal event closes
// j's feeds. Caller holds s.mu.
func (s *Scheduler) publishLocked(j *Job, ev Event) {
	s.published++
	ev.Seq = s.published
	if s.observe != nil {
		s.observe(ev)
	}
	for _, w := range j.watchers {
		s.visits++
		select {
		case w.ch <- ev:
		default:
			s.dropped++
		}
	}
	if ev.To.Terminal() {
		for _, w := range j.watchers {
			w.job = nil
			close(w.ch)
		}
		s.watches -= len(j.watchers)
		j.watchers = nil
	}
}
