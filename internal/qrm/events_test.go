package qrm

import (
	"context"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/qdmi"
)

// newPacedManager builds a manager over a twin device with a wall-clock
// control-electronics latency, so in-flight windows are wide enough to race
// cancellations into.
func newPacedManager(seed int64, latency time.Duration) *Manager {
	qpu := device.NewTwin20Q(seed)
	qpu.SetExecLatency(latency)
	return NewManager(qdmi.NewDevice(qpu, nil))
}

// drainEvents collects already-delivered events without blocking.
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

func TestDeadlineExpiresInQueue(t *testing.T) {
	m := newManager(41)
	late := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: 1})
	ok := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5})
	time.Sleep(10 * time.Millisecond) // let the 1 ms dispatch budget lapse
	start(t, m, 1)
	if j := await(t, late); j.Status != StatusFailed || j.Error != ErrDeadlineMsg {
		t.Errorf("expired job = %s (%q), want failed with deadline message", j.Status, j.Error)
	}
	if j := await(t, ok); j.Status != StatusDone {
		t.Errorf("deadline-free job = %s, want done", j.Status)
	}
	if snap := m.Metrics(); snap.Expired != 1 || snap.Failed != 1 {
		t.Errorf("expired=%d failed=%d, want 1/1", snap.Expired, snap.Failed)
	}
}

func TestCancelInFlight(t *testing.T) {
	m := newPacedManager(42, 50*time.Millisecond)
	start(t, m, 1)
	h := submit(t, m, Request{Circuit: circuit.GHZ(3), Shots: 10})
	// Wait for the worker to claim the job (it leaves the queue).
	deadline := time.Now().Add(2 * time.Second)
	for {
		j := h.Record()
		if j.Status == StatusCompiling || j.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never left the queue (status %s)", j.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Cancel(); err != nil {
		t.Fatalf("in-flight cancel: %v", err)
	}
	j := await(t, h)
	if j.Status != StatusCancelled {
		t.Errorf("status = %s, want cancelled (in-flight cancel must win)", j.Status)
	}
	if len(j.Counts) != 0 {
		t.Error("cancelled job must not carry results")
	}
	if err := h.Cancel(); err == nil {
		t.Error("cancel of a terminal job should error")
	}
}

func TestHandleWaitHonoursContext(t *testing.T) {
	m := newPacedManager(43, 50*time.Millisecond)
	start(t, m, 1)
	h := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := h.Wait(ctx); err != context.DeadlineExceeded {
		t.Errorf("Wait = %v, want context.DeadlineExceeded", err)
	}
	// The job itself is untouched and completes normally.
	if j := await(t, h); j.Status != StatusDone {
		t.Errorf("job after abandoned wait = %+v", j)
	}
}
