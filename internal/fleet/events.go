package fleet

import "sync"

// This file is the job event bus behind the v2 watch API. The scheduler
// owns the one instance: transitionLocked publishes every lifecycle
// transition as an Event, and subscribers — REST watch streams, local
// JobHandle.Watch, tests — receive it without polling the job record. The
// bus is deliberately lossy for slow consumers: Publish never blocks the
// publisher, so a subscriber that stops draining its channel drops events
// (counted per subscription) instead of wedging the scheduler.

// Event is one job lifecycle transition, an edge of the lifecycle table.
type Event struct {
	// Seq is the bus-assigned publication order (monotonic, starts at 1).
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

// Subscription is one consumer's feed. Read from Events(); Close when done.
type Subscription struct {
	bus   *EventBus
	id    int
	jobID int // 0 = all jobs
	ch    chan Event

	mu      sync.Mutex
	dropped uint64
	closed  bool
}

// Events returns the subscription's channel. The bus closes it when either
// the subscription or the bus itself is closed.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events this subscription lost to a full buffer.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription and closes its channel. Idempotent.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.closeLocked()
}

// closeLocked requires bus.mu.
func (s *Subscription) closeLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.bus.subs, s.id)
	close(s.ch)
}

// EventBus fans job lifecycle events out to subscribers.
type EventBus struct {
	mu      sync.Mutex
	nextSeq uint64
	nextSub int
	subs    map[int]*Subscription
	closed  bool
	// droppedTotal accumulates every per-subscriber drop, including those
	// of subscriptions that have since closed — the /metrics counter needs
	// history, not just the currently-attached set.
	droppedTotal uint64
}

// BusStats is a point-in-time view of bus health for the metrics plane.
type BusStats struct {
	Published    uint64 // events assigned a sequence number
	DroppedTotal uint64 // deliveries lost to full subscriber buffers, ever
	Subscribers  int    // currently attached subscriptions
}

// Stats snapshots publication, drop and subscriber counters.
func (b *EventBus) Stats() BusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BusStats{Published: b.nextSeq, DroppedTotal: b.droppedTotal, Subscribers: len(b.subs)}
}

// NewEventBus builds an empty bus.
func NewEventBus() *EventBus {
	return &EventBus{subs: make(map[int]*Subscription)}
}

// Subscribe attaches a consumer. jobID filters to one job (0 = every job);
// buffer sizes the delivery channel (minimum 1) — a terminal-state watcher
// needs only a handful of slots, a firehose consumer should size up.
func (b *EventBus) Subscribe(jobID, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextSub++
	s := &Subscription{bus: b, id: b.nextSub, jobID: jobID, ch: make(chan Event, buffer)}
	if b.closed {
		// A closed bus yields an already-closed feed: the consumer's range
		// loop exits immediately instead of hanging.
		s.closed = true
		close(s.ch)
		return s
	}
	b.subs[s.id] = s
	return s
}

// Publish assigns the event its sequence number and delivers it to every
// matching subscriber without blocking: a full buffer drops the event for
// that subscriber only.
func (b *EventBus) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.nextSeq++
	ev.Seq = b.nextSeq
	for _, s := range b.subs {
		if s.jobID != 0 && s.jobID != ev.JobID {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
			b.droppedTotal++
		}
	}
}

// Close shuts the bus down, closing every subscriber channel. Further
// Publish calls are no-ops and further Subscribes return closed feeds.
func (b *EventBus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		s.closeLocked()
	}
}
