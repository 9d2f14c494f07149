package qrm

import (
	"context"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/qdmi"
)

func newManager(seed int64) *Manager {
	return NewManager(qdmi.NewDevice(device.NewTwin20Q(seed), nil))
}

// start launches n workers and stops them when the test ends.
func start(t testing.TB, m *Manager, n int) {
	t.Helper()
	if err := m.Start(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
}

// submit enqueues an untraced job, failing the test on a refusal.
func submit(t testing.TB, m *Manager, req Request) Handle {
	t.Helper()
	h, err := m.Submit(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// await waits (bounded) for the handle's terminal record.
func await(t testing.TB, h Handle) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("job %d: %v", h.ID(), err)
	}
	return j
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(1)
	if _, err := m.Submit(Request{Shots: 10}, nil); err == nil {
		t.Error("expected error for nil circuit")
	}
	if _, err := m.Submit(Request{Circuit: circuit.GHZ(3), Shots: 0}, nil); err == nil {
		t.Error("expected error for 0 shots")
	}
	if _, err := m.Submit(Request{Circuit: circuit.GHZ(25), Shots: 10}, nil); err == nil {
		t.Error("expected error for oversized circuit")
	}
	bad := circuit.New(2, "bad")
	bad.Gates = append(bad.Gates, circuit.Gate{Name: "bogus", Qubits: []int{0}})
	if _, err := m.Submit(Request{Circuit: bad, Shots: 10}, nil); err == nil {
		t.Error("expected error for invalid circuit")
	}
}

func TestSubmitStepDone(t *testing.T) {
	m := newManager(2)
	h := submit(t, m, Request{Circuit: circuit.GHZ(4), Shots: 200, User: "alice"})
	if queued, _ := m.Load(); queued != 1 {
		t.Error("queue should hold 1 job")
	}
	if rec := h.Record(); rec.Status != StatusQueued {
		t.Errorf("status before dispatch = %s, want queued", rec.Status)
	}
	start(t, m, 1)
	j := await(t, h)
	if j.ID != h.ID() {
		t.Fatalf("record ID = %d, handle ID = %d", j.ID, h.ID())
	}
	if j.Status != StatusDone {
		t.Fatalf("status = %s, error = %s", j.Status, j.Error)
	}
	if j.CompiledGates == 0 || j.CZCount == 0 || j.CompileStats == "" {
		t.Error("compilation transparency fields not populated")
	}
	total := 0
	for _, c := range j.Counts {
		total += c
	}
	if total != 200 {
		t.Errorf("counts total = %d, want 200", total)
	}
	if j.DurationUs <= 0 {
		t.Error("duration not recorded")
	}
	// On the noiseless twin a GHZ gives exactly 2 outcomes.
	if len(j.Counts) != 2 {
		t.Errorf("twin GHZ outcomes = %d, want 2", len(j.Counts))
	}
}

func TestPriorityDispatchOrder(t *testing.T) {
	m := newManager(4)
	low := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, Priority: 0})
	high := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, Priority: 9})
	m.mu.Lock()
	first, second := m.claimLocked(), m.claimLocked()
	m.mu.Unlock()
	if first.ID != high.ID() {
		t.Errorf("first dispatched = %d, want high-priority %d", first.ID, high.ID())
	}
	if second.ID != low.ID() {
		t.Errorf("second dispatched = %d, want %d", second.ID, low.ID())
	}
}

func TestCancel(t *testing.T) {
	m := newManager(7)
	h := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10})
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	default:
		t.Error("cancelling a queued job did not close Done")
	}
	if j := h.Record(); j.Status != StatusCancelled {
		t.Errorf("status = %s", j.Status)
	}
	if err := h.Cancel(); err == nil {
		t.Error("double cancel should fail")
	}
}

func TestOutageInterruptsAndRequeues(t *testing.T) {
	m := newManager(9)
	h1 := submit(t, m, Request{Circuit: circuit.GHZ(3), Shots: 50, User: "carol"})
	h2 := submit(t, m, Request{Circuit: circuit.GHZ(4), Shots: 50, User: "carol"})
	m.SetOnline(false)
	j1, j2 := h1.Record(), h2.Record()
	if j1.Status != StatusInterrupted || j2.Status != StatusInterrupted {
		t.Fatalf("statuses = %s, %s; want interrupted", j1.Status, j2.Status)
	}
	if _, err := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 10}, nil); err == nil {
		t.Error("submit during outage should fail")
	}
	m.SetOnline(true)
	// Requeueing is the caller's move (the fleet scheduler re-routes
	// interrupted work): the interrupted records keep their requests.
	start(t, m, 1)
	for _, j := range []*Job{j1, j2} {
		if re := await(t, submit(t, m, j.Request)); re.Status != StatusDone {
			t.Errorf("requeued job %d = %s", re.ID, re.Status)
		}
	}
}

func TestJITCompilationSeesLiveCalibration(t *testing.T) {
	// On a noisy device with a poisoned qubit, the default fidelity-aware
	// dispatch should avoid it; with StaticPlacement it cannot.
	qpu := device.New20Q(10)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	qpu.AdvanceDrift(24 * 30)
	hJIT := submit(t, m, Request{Circuit: circuit.GHZ(4), Shots: 10})
	hStatic := submit(t, m, Request{Circuit: circuit.GHZ(4), Shots: 10, StaticPlacement: true})
	start(t, m, 1)
	jJIT, jStatic := await(t, hJIT), await(t, hStatic)
	if jJIT.Status != StatusDone || jStatic.Status != StatusDone {
		t.Fatalf("statuses: %s / %s", jJIT.Status, jStatic.Status)
	}
	// Static placement is the identity layout.
	for i, p := range jStatic.Layout {
		if i != p {
			t.Errorf("static layout[%d] = %d", i, p)
		}
	}
}
