package qrm_test

// The QRM's queue, admission, worker pool, device stage and job lifecycle
// are the fleet scheduler's; this package keeps the request. These tests
// drive the QRM of one device through a one-device fleet — the deployment
// it is.

import (
	"context"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// newFleet serves qpu as a one-device fleet with n workers, stopped when the
// test ends.
func newFleet(t testing.TB, qpu *device.QPU, n int) *fleet.Scheduler {
	t.Helper()
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// twinFleet is newFleet over a noiseless 20-qubit twin.
func twinFleet(t testing.TB, seed int64, n int) *fleet.Scheduler {
	return newFleet(t, device.NewTwin20Q(seed), n)
}

// hold stops f's only device from claiming, so submissions stay queued
// until release.
func hold(t testing.TB, f *fleet.Scheduler) (release func()) {
	t.Helper()
	name := f.Devices()[0]
	if err := f.Drain(name); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := f.Resume(name); err != nil {
			t.Fatal(err)
		}
	}
}

// submit queues a job, failing the test on a refusal.
func submit(t testing.TB, f *fleet.Scheduler, req qrm.Request) int {
	t.Helper()
	id, err := f.Submit(req, fleet.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// await waits (bounded) for the job's terminal record.
func await(t testing.TB, f *fleet.Scheduler, id int) *fleet.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := f.WaitContext(ctx, id)
	if err != nil {
		t.Fatalf("job %d: %v", id, err)
	}
	return j
}

// pipeline is the device's dispatch-pipeline snapshot.
func pipeline(f *fleet.Scheduler) fleet.PipelineMetrics { return f.Metrics().Devices[0].QRM }

func TestSubmitValidation(t *testing.T) {
	f := twinFleet(t, 1, 1)
	if _, err := f.Submit(qrm.Request{Shots: 10}, fleet.SubmitOptions{}); err == nil {
		t.Error("expected error for nil circuit")
	}
	if _, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(3), Shots: 0}, fleet.SubmitOptions{}); err == nil {
		t.Error("expected error for 0 shots")
	}
	if _, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(25), Shots: 10}, fleet.SubmitOptions{}); err == nil {
		t.Error("expected error for oversized circuit")
	}
	bad := circuit.New(2, "bad")
	bad.Gates = append(bad.Gates, circuit.Gate{Name: "bogus", Qubits: []int{0}})
	if _, err := f.Submit(qrm.Request{Circuit: bad, Shots: 10}, fleet.SubmitOptions{}); err == nil {
		t.Error("expected error for invalid circuit")
	}
}

func TestSubmitStepDone(t *testing.T) {
	f := twinFleet(t, 2, 1)
	release := hold(t, f)
	id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(4), Shots: 200, User: "alice"})
	if m := f.Metrics(); m.QueueDepth != 1 {
		t.Errorf("queue depth = %d, want 1", m.QueueDepth)
	}
	if rec, _ := f.Job(id); rec.Status != fleet.JobQueued {
		t.Errorf("status before dispatch = %s, want queued", rec.Status)
	}
	release()
	rec := await(t, f, id)
	if rec.Status != fleet.JobDone {
		t.Fatalf("status = %s, error = %s", rec.Status, rec.Error)
	}
	j := rec.Result
	if j == nil {
		t.Fatal("done job without a result")
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
	f := twinFleet(t, 4, 1)
	release := hold(t, f)
	low := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, Priority: 0})
	high := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, Priority: 9})
	sub := f.Events().Subscribe(0, 16)
	defer sub.Close()
	release()
	var claimed []int
	for len(claimed) < 2 {
		if ev := <-sub.Events(); ev.To == fleet.JobRouted {
			claimed = append(claimed, ev.JobID)
		}
	}
	if claimed[0] != high || claimed[1] != low {
		t.Errorf("claim order = %v, want high-priority %d then %d", claimed, high, low)
	}
}

func TestCancel(t *testing.T) {
	f := twinFleet(t, 7, 1)
	hold(t, f)
	id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10})
	if err := f.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if j, _ := f.Job(id); j.Status != fleet.JobCancelled {
		t.Errorf("cancelling a queued job left it %s", j.Status)
	}
	if err := f.Cancel(id); err == nil {
		t.Error("double cancel should fail")
	}
}

// TestOutageInterruptsAndRequeues: an outage (the device failed) interrupts
// the job on its QPU — its execution faults — and sends it back to the
// queue; the job queued behind it is untouched, a submission during the
// outage is accepted and waits, and all three run after recovery.
func TestOutageInterruptsAndRequeues(t *testing.T) {
	qpu := device.NewTwin20Q(9)
	qpu.SetExecLatency(50 * time.Millisecond)
	f := newFleet(t, qpu, 1)
	qpu.InjectFaults(1)
	running := submit(t, f, qrm.Request{Circuit: circuit.GHZ(3), Shots: 50, User: "carol"})
	queued := submit(t, f, qrm.Request{Circuit: circuit.GHZ(4), Shots: 50, User: "carol"})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, _ := f.Job(running); j.Status == fleet.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never reached the QPU")
		}
	}
	name := f.Devices()[0]
	if err := f.Fail(name); err != nil {
		t.Fatal(err)
	}
	during := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, _ := f.Job(running); j.Status == fleet.JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the interrupted job never went back to the queue")
		}
	}
	if m := f.Metrics(); m.QueueDepth != 3 {
		t.Errorf("queue depth during the outage = %d, want 3", m.QueueDepth)
	}
	if err := f.Recover(name); err != nil {
		t.Fatal(err)
	}
	for id, migrations := range map[int]int{running: 1, queued: 0, during: 0} {
		if j := await(t, f, id); j.Status != fleet.JobDone || j.Migrations != migrations {
			t.Errorf("job %d = %s after %d migrations, want done after %d", id, j.Status, j.Migrations, migrations)
		}
	}
}

func TestJITCompilationSeesLiveCalibration(t *testing.T) {
	// On a noisy device with a poisoned qubit, the default fidelity-aware
	// dispatch should avoid it; with StaticPlacement it cannot.
	qpu := device.New20Q(10)
	qpu.AdvanceDrift(24 * 30)
	f := newFleet(t, qpu, 1)
	jit := submit(t, f, qrm.Request{Circuit: circuit.GHZ(4), Shots: 10})
	static := submit(t, f, qrm.Request{Circuit: circuit.GHZ(4), Shots: 10, StaticPlacement: true})
	jJIT, jStatic := await(t, f, jit), await(t, f, static)
	if jJIT.Status != fleet.JobDone || jStatic.Status != fleet.JobDone {
		t.Fatalf("statuses: %s / %s", jJIT.Status, jStatic.Status)
	}
	// Static placement is the identity layout.
	for i, p := range jStatic.Result.Layout {
		if i != p {
			t.Errorf("static layout[%d] = %d", i, p)
		}
	}
}
