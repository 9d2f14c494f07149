package qrm

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/qdmi"
)

func newManager(seed int64) *Manager {
	return NewManager(qdmi.NewDevice(device.NewTwin20Q(seed), nil))
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(1)
	if _, err := m.Submit(Request{Shots: 10}); err == nil {
		t.Error("expected error for nil circuit")
	}
	if _, err := m.Submit(Request{Circuit: circuit.GHZ(3), Shots: 0}); err == nil {
		t.Error("expected error for 0 shots")
	}
	if _, err := m.Submit(Request{Circuit: circuit.GHZ(25), Shots: 10}); err == nil {
		t.Error("expected error for oversized circuit")
	}
	bad := circuit.New(2, "bad")
	bad.Gates = append(bad.Gates, circuit.Gate{Name: "bogus", Qubits: []int{0}})
	if _, err := m.Submit(Request{Circuit: bad, Shots: 10}); err == nil {
		t.Error("expected error for invalid circuit")
	}
}

func TestSubmitStepDone(t *testing.T) {
	m := newManager(2)
	id, err := m.Submit(Request{Circuit: circuit.GHZ(4), Shots: 200, User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if m.PendingCount() != 1 {
		t.Error("queue should hold 1 job")
	}
	j, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if j == nil || j.ID != id {
		t.Fatalf("step returned %+v", j)
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

func TestStepEmptyQueue(t *testing.T) {
	m := newManager(3)
	j, err := m.Step()
	if err != nil || j != nil {
		t.Errorf("empty queue step = %v, %v", j, err)
	}
}

func TestPriorityDispatchOrder(t *testing.T) {
	m := newManager(4)
	idLow, _ := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 10, Priority: 0})
	idHigh, _ := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 10, Priority: 9})
	first, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != idHigh {
		t.Errorf("first dispatched = %d, want high-priority %d", first.ID, idHigh)
	}
	second, _ := m.Step()
	if second.ID != idLow {
		t.Errorf("second dispatched = %d, want %d", second.ID, idLow)
	}
}

func TestDrain(t *testing.T) {
	m := newManager(5)
	for i := 0; i < 5; i++ {
		m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 20})
	}
	n, err := m.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("drained %d, want 5", n)
	}
	if m.PendingCount() != 0 {
		t.Error("queue not empty after drain")
	}
}

func TestBatchSubmission(t *testing.T) {
	m := newManager(6)
	reqs := []Request{
		{Circuit: circuit.GHZ(2), Shots: 10, User: "bob"},
		{Circuit: circuit.GHZ(3), Shots: 10, User: "bob"},
		{Circuit: circuit.GHZ(4), Shots: 10, User: "bob"},
	}
	batch, ids, err := m.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if batch == 0 || len(ids) != 3 {
		t.Fatalf("batch = %d, ids = %v", batch, ids)
	}
	for _, id := range ids {
		j, err := m.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Request.BatchID != batch {
			t.Errorf("job %d batch = %d, want %d", id, j.Request.BatchID, batch)
		}
	}
	if _, _, err := m.SubmitBatch(nil); err == nil {
		t.Error("empty batch should fail")
	}
}

func TestCancel(t *testing.T) {
	m := newManager(7)
	id, _ := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 10})
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Job(id)
	if j.Status != StatusCancelled {
		t.Errorf("status = %s", j.Status)
	}
	if err := m.Cancel(id); err == nil {
		t.Error("double cancel should fail")
	}
}

func TestHistoryPagination(t *testing.T) {
	m := newManager(8)
	for i := 0; i < 25; i++ {
		user := "alice"
		if i%2 == 1 {
			user = "bob"
		}
		m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 5, User: user})
	}
	m.Drain()
	page, err := m.History("", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 25 || len(page.Jobs) != 10 || !page.HasMore {
		t.Errorf("page = total %d, len %d, more %v", page.Total, len(page.Jobs), page.HasMore)
	}
	// Most recent first.
	if page.Jobs[0].ID <= page.Jobs[1].ID {
		t.Error("history not newest-first")
	}
	last, err := m.History("", 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Jobs) != 5 || last.HasMore {
		t.Errorf("last page = len %d, more %v", len(last.Jobs), last.HasMore)
	}
	alice, err := m.History("alice", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if alice.Total != 13 {
		t.Errorf("alice jobs = %d, want 13", alice.Total)
	}
	beyond, err := m.History("", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(beyond.Jobs) != 0 {
		t.Error("page beyond end should be empty")
	}
	if _, err := m.History("", -1, 10); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := m.History("", 0, 0); err == nil {
		t.Error("zero limit should fail")
	}
}

func TestOutageInterruptsAndRequeues(t *testing.T) {
	m := newManager(9)
	id1, _ := m.Submit(Request{Circuit: circuit.GHZ(3), Shots: 50, User: "carol"})
	id2, _ := m.Submit(Request{Circuit: circuit.GHZ(4), Shots: 50, User: "carol"})
	m.SetOnline(false)
	j1, _ := m.Job(id1)
	j2, _ := m.Job(id2)
	if j1.Status != StatusInterrupted || j2.Status != StatusInterrupted {
		t.Fatalf("statuses = %s, %s; want interrupted", j1.Status, j2.Status)
	}
	if _, err := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 10}); err == nil {
		t.Error("submit during outage should fail")
	}
	if _, err := m.Step(); err == nil {
		t.Error("step during outage should fail")
	}
	m.SetOnline(true)
	// Requeueing is the caller's move (the fleet scheduler re-routes
	// interrupted work): the interrupted records keep their requests.
	var ids []int
	for _, j := range []*Job{j1, j2} {
		id, err := m.Submit(j.Request)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	n, err := m.Drain()
	if err != nil || n != 2 {
		t.Fatalf("drained %d, err %v", n, err)
	}
	for _, id := range ids {
		j, _ := m.Job(id)
		if j.Status != StatusDone {
			t.Errorf("requeued job %d = %s", id, j.Status)
		}
	}
}

func TestJITCompilationSeesLiveCalibration(t *testing.T) {
	// On a noisy device with a poisoned qubit, the default fidelity-aware
	// dispatch should avoid it; with StaticPlacement it cannot.
	qpu := device.New20Q(10)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	qpu.AdvanceDrift(24 * 30)
	idJIT, _ := m.Submit(Request{Circuit: circuit.GHZ(4), Shots: 10})
	idStatic, _ := m.Submit(Request{Circuit: circuit.GHZ(4), Shots: 10, StaticPlacement: true})
	m.Drain()
	jJIT, _ := m.Job(idJIT)
	jStatic, _ := m.Job(idStatic)
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

func TestJobLookupError(t *testing.T) {
	m := newManager(11)
	if _, err := m.Job(404); err == nil {
		t.Error("expected error for unknown job")
	}
}
