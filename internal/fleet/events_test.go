package fleet

import (
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

func TestEventBusFilteredSubscriptionAndSeq(t *testing.T) {
	bus := NewEventBus()
	all := bus.Subscribe(0, 8)
	only2 := bus.Subscribe(2, 8)
	bus.Publish(Event{JobID: 1, To: "queued"})
	bus.Publish(Event{JobID: 2, To: "queued"})
	bus.Publish(Event{JobID: 2, To: "done"})
	if got := len(drainEvents(all)); got != 3 {
		t.Errorf("all-subscription saw %d events, want 3", got)
	}
	evs := drainEvents(only2)
	if len(evs) != 2 {
		t.Fatalf("filtered subscription saw %d events, want 2", len(evs))
	}
	if evs[0].Seq >= evs[1].Seq || evs[0].Seq == 0 {
		t.Errorf("sequence numbers not monotonic: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	bus.Close()
	if _, ok := <-all.Events(); ok {
		t.Error("bus close should close subscriber channels")
	}
	// Subscribing to a closed bus yields an immediately-closed feed.
	if _, ok := <-bus.Subscribe(0, 1).Events(); ok {
		t.Error("subscription on a closed bus should be closed")
	}
}

func TestEventBusSlowSubscriberDrops(t *testing.T) {
	bus := NewEventBus()
	defer bus.Close()
	slow := bus.Subscribe(0, 2)
	for i := 0; i < 10; i++ {
		bus.Publish(Event{JobID: 1, To: "queued"})
	}
	if slow.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", slow.Dropped())
	}
	if got := len(drainEvents(slow)); got != 2 {
		t.Errorf("delivered = %d, want 2 (buffer size)", got)
	}
}

// TestSubscriptionDroppedCounterExact forces buffer overflow on a slow
// subscriber and checks the Dropped counter to the event: delivered +
// buffered + dropped must equal published, sequentially and under
// concurrent publishers, and a job-filtered subscription must not charge
// non-matching events against its buffer.
func TestSubscriptionDroppedCounterExact(t *testing.T) {
	// Sequential: 4-slot buffer, 100 events, no draining.
	bus := NewEventBus()
	slow := bus.Subscribe(0, 4)
	for i := 0; i < 100; i++ {
		bus.Publish(Event{JobID: 1, To: "queued"})
	}
	if n := slow.Dropped(); n != 96 {
		t.Errorf("dropped = %d, want 96 (100 published, 4 buffered)", n)
	}
	// Drain the 4, publish 3 more: they fit, dropped must not move.
	for i := 0; i < 4; i++ {
		<-slow.Events()
	}
	for i := 0; i < 3; i++ {
		bus.Publish(Event{JobID: 1, To: "queued"})
	}
	if n := slow.Dropped(); n != 96 {
		t.Errorf("dropped moved to %d after the buffer had room", n)
	}

	// Filtered: events for other jobs are invisible, not drops.
	filtered := bus.Subscribe(7, 1)
	for i := 0; i < 50; i++ {
		bus.Publish(Event{JobID: 8, To: "queued"})
	}
	if n := filtered.Dropped(); n != 0 {
		t.Errorf("filtered subscription charged %d drops for non-matching events", n)
	}
	bus.Publish(Event{JobID: 7, To: "queued"})
	bus.Publish(Event{JobID: 7, To: "running"}) // buffer of 1 is full now
	if n := filtered.Dropped(); n != 1 {
		t.Errorf("filtered dropped = %d, want exactly 1", n)
	}
	bus.Close()

	// Concurrent: 4 publishers x 500 events against a tiny buffer the
	// consumer drains only afterwards. Publish serializes on the bus lock,
	// so received + dropped must account for every single event.
	bus2 := NewEventBus()
	sub := bus2.Subscribe(0, 8)
	var wg sync.WaitGroup
	const publishers, perPublisher = 4, 500
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				bus2.Publish(Event{JobID: 1, To: "queued"})
			}
		}()
	}
	wg.Wait()
	received := 0
	for {
		select {
		case <-sub.Events():
			received++
			continue
		default:
		}
		break
	}
	total := received + int(sub.Dropped())
	if total != publishers*perPublisher {
		t.Errorf("received %d + dropped %d = %d, want %d — overflow accounting lost events",
			received, sub.Dropped(), total, publishers*perPublisher)
	}
	bus2.Close()
}
