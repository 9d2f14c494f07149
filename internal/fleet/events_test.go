package fleet

import (
	"errors"
	"sync"
	"testing"
)

func drainEvents(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// heldFleet is a one-device fleet whose device is drained, so every job
// submitted to it stays queued until the device resumes, and the IDs of n
// such jobs.
func heldFleet(t *testing.T, n int) (*Scheduler, []int) {
	t.Helper()
	s := New(PolicyBestFidelity, nil)
	t.Cleanup(s.Stop)
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain("a"); err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for i := range ids {
		id, err := s.Submit(req(2, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return s, ids
}

// watch attaches a feed to job id, which must not be terminal.
func watch(t *testing.T, s *Scheduler, id, buffer int) *Subscription {
	t.Helper()
	_, _, _, sub, err := s.Watch(id, buffer)
	if err != nil || sub == nil {
		t.Fatalf("watch of job %d: %v, %v", id, sub, err)
	}
	return sub
}

// publish hands job id's watchers a synthetic event, as transitionLocked
// does a real one.
func publish(s *Scheduler, id int, to JobStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(s.jobs[id], Event{JobID: id, To: to})
}

// TestEventBusFilteredSubscriptionAndSeq: a watch of one job carries that
// job's events only, in Seq order, and its feed closes after the terminal
// event; a watch of a terminal job attaches nothing, and one of an unknown
// job fails.
func TestEventBusFilteredSubscriptionAndSeq(t *testing.T) {
	s, ids := heldFleet(t, 2)
	st, _, _, sub, err := s.Watch(ids[1], 8)
	if err != nil || sub == nil || st != JobQueued {
		t.Fatalf("watch of a queued job: %s, %v, %v", st, sub, err)
	}
	if err := s.Resume("a"); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for ev := range sub.Events() {
		evs = append(evs, ev)
	}
	if len(evs) != 2 || evs[0].To != JobRouted || evs[1].To != JobDone {
		t.Fatalf("feed of job %d carried %+v, want routed then done", ids[1], evs)
	}
	for _, ev := range evs {
		if ev.JobID != ids[1] {
			t.Errorf("feed of job %d carried job %d's event %+v", ids[1], ev.JobID, ev)
		}
	}
	if evs[0].Seq >= evs[1].Seq || evs[0].Seq == 0 {
		t.Errorf("sequence numbers not monotonic: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	sub.Close() // after the terminal event closed the feed: a no-op
	s.WaitSettled()
	if st, _, _, sub, err := s.Watch(ids[0], 8); err != nil || sub != nil || st != JobDone {
		t.Errorf("watch of a done job: %s, %v, %v; want done and no feed", st, sub, err)
	}
	if _, _, _, _, err := s.Watch(ids[1]+1, 8); !errors.Is(err, ErrNoJob) {
		t.Errorf("watch of an unknown job: %v, want ErrNoJob", err)
	}
	if n := s.EventStats().Watches; n != 0 {
		t.Errorf("%d watches open after the jobs settled, want 0", n)
	}
}

func TestEventBusSlowSubscriberDrops(t *testing.T) {
	s, ids := heldFleet(t, 1)
	slow := watch(t, s, ids[0], 2)
	defer slow.Close()
	before := s.EventStats().DroppedTotal
	for i := 0; i < 10; i++ {
		publish(s, ids[0], JobQueued)
	}
	if n := s.EventStats().DroppedTotal - before; n != 8 {
		t.Errorf("dropped = %d, want 8", n)
	}
	// The terminal event finds the buffer full: it is dropped too, and the
	// feed closes behind the two events it holds.
	publish(s, ids[0], JobCancelled)
	if n := s.EventStats().DroppedTotal - before; n != 9 {
		t.Errorf("dropped = %d after the terminal event, want 9", n)
	}
	var got []Event
	for ev := range slow.Events() {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Errorf("delivered = %d, want 2 (buffer size)", len(got))
	}
	if n := s.EventStats().Watches; n != 0 {
		t.Errorf("%d watches open after the terminal event, want 0", n)
	}
}

// TestSubscriptionDroppedCounterExact forces buffer overflow on a slow
// watcher and checks the dropped counter to the event: delivered +
// buffered + dropped must equal published, sequentially and under
// concurrent publishers, and another job's events must not charge against
// a watcher's buffer.
func TestSubscriptionDroppedCounterExact(t *testing.T) {
	s, ids := heldFleet(t, 3)
	dropped := func() uint64 { return s.EventStats().DroppedTotal }

	// Sequential: 4-slot buffer, 100 events, no draining.
	slow := watch(t, s, ids[0], 4)
	for i := 0; i < 100; i++ {
		publish(s, ids[0], JobQueued)
	}
	if n := dropped(); n != 96 {
		t.Errorf("dropped = %d, want 96 (100 published, 4 buffered)", n)
	}
	// Drain the 4, publish 3 more: they fit, dropped must not move.
	for i := 0; i < 4; i++ {
		<-slow.Events()
	}
	for i := 0; i < 3; i++ {
		publish(s, ids[0], JobQueued)
	}
	if n := dropped(); n != 96 {
		t.Errorf("dropped moved to %d after the buffer had room", n)
	}
	slow.Close()

	// Another job's events are invisible, not drops.
	filtered := watch(t, s, ids[1], 1)
	for i := 0; i < 50; i++ {
		publish(s, ids[2], JobQueued)
	}
	if n := dropped() - 96; n != 0 {
		t.Errorf("watcher of job %d charged %d drops for job %d's events", ids[1], n, ids[2])
	}
	publish(s, ids[1], JobQueued)
	publish(s, ids[1], JobRouted) // buffer of 1 is full now
	if n := dropped() - 96; n != 1 {
		t.Errorf("filtered dropped = %d, want exactly 1", n)
	}
	filtered.Close()

	// Concurrent: 4 publishers x 500 events against a tiny buffer the
	// consumer drains only afterwards. Publishes serialize on the
	// scheduler's lock, so received + dropped must account for every event.
	sub := watch(t, s, ids[2], 8)
	before := dropped()
	var wg sync.WaitGroup
	const publishers, perPublisher = 4, 500
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				publish(s, ids[2], JobQueued)
			}
		}()
	}
	wg.Wait()
	received := len(drainEvents(sub))
	lost := int(dropped() - before)
	if received+lost != publishers*perPublisher {
		t.Errorf("received %d + dropped %d = %d, want %d — overflow accounting lost events",
			received, lost, received+lost, publishers*perPublisher)
	}
	sub.Close()
}

// TestPublishVisitsOnlyItsWatchers: 1 000 idle watches of one queued job
// cost the other jobs' publishes nothing. Every publish visits its own
// job's watchers and no other, and the held job's terminal event reaches
// and closes all 1 000.
func TestPublishVisitsOnlyItsWatchers(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	for _, name := range []string{"a", "b"} {
		if err := s.AddDevice(name, mkdev(t, name, 2, 2, 1, 0), 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(name); err != nil {
			t.Fatal(err)
		}
	}
	held, err := s.Submit(req(2, 5), SubmitOptions{Device: "a"})
	if err != nil {
		t.Fatal(err)
	}
	const idle = 1000
	watchers := make([]*Subscription, idle)
	for i := range watchers {
		watchers[i] = watch(t, s, held, 1)
	}

	// Each other job is watched once while queued, then publishes routed
	// and done: two visits.
	const others = 50
	var feeds []*Subscription
	for i := 0; i < others; i++ {
		id, err := s.Submit(req(2, 5), SubmitOptions{Device: "b"})
		if err != nil {
			t.Fatal(err)
		}
		feeds = append(feeds, watch(t, s, id, 4))
	}
	v0 := s.watcherVisits()
	if err := s.Resume("b"); err != nil {
		t.Fatal(err)
	}
	for _, f := range feeds {
		for range f.Events() {
		}
	}
	if v := s.watcherVisits() - v0; v != 2*others {
		t.Errorf("%d publishes of watched-once jobs visited %d watchers, want %d: each visits its own job's only", 2*others, v, 2*others)
	}
	for i, w := range watchers {
		if n := len(w.Events()); n != 0 {
			t.Fatalf("idle watcher %d of job %d holds %d events of other jobs", i, held, n)
		}
	}
	if n := s.EventStats().Watches; n != idle {
		t.Errorf("%d watches open, want the held job's %d", n, idle)
	}

	v0 = s.watcherVisits()
	if err := s.Cancel(held); err != nil {
		t.Fatal(err)
	}
	if v := s.watcherVisits() - v0; v != idle {
		t.Errorf("the held job's cancel visited %d watchers, want its %d", v, idle)
	}
	for i, w := range watchers {
		evs := drainEvents(w)
		if len(evs) != 1 || evs[0].To != JobCancelled {
			t.Fatalf("idle watcher %d read %+v, want the cancel alone", i, evs)
		}
		if _, ok := <-w.Events(); ok {
			t.Fatalf("idle watcher %d's feed is open after the terminal event", i)
		}
	}
	if n := s.EventStats().Watches; n != 0 {
		t.Errorf("%d watches open after the held job's terminal event, want 0", n)
	}
}
