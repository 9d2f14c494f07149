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
