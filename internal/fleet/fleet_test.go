package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/ops"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/telemetry"
)

// mkdev builds a twin QPU grid wrapped in a QDMI handle, with an optional
// paced control-electronics latency.
func mkdev(t testing.TB, name string, rows, cols int, seed int64, latency time.Duration) *qdmi.Device {
	t.Helper()
	qpu, err := device.New(device.Config{Name: name, Rows: rows, Cols: cols, Seed: seed, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	if latency > 0 {
		qpu.SetExecLatency(latency)
	}
	return qdmi.NewDevice(qpu, nil)
}

func req(n, shots int) qrm.Request {
	return qrm.Request{Circuit: circuit.GHZ(n), Shots: shots, User: "test"}
}

func TestSubmitValidation(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if _, err := s.Submit(req(2, 10), SubmitOptions{}); err == nil {
		t.Fatal("submit with no devices should fail")
	}
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(qrm.Request{Shots: 10}, SubmitOptions{}); err == nil {
		t.Fatal("submit with no circuit should fail")
	}
	if _, err := s.Submit(qrm.Request{Circuit: circuit.GHZ(2)}, SubmitOptions{}); err == nil {
		t.Fatal("submit with zero shots should fail")
	}
	if _, err := s.Submit(req(10, 10), SubmitOptions{}); err == nil {
		t.Fatal("10-qubit circuit should not fit a 4-qubit fleet")
	}
	if _, err := s.Submit(req(2, 10), SubmitOptions{Device: "nope"}); err == nil {
		t.Fatal("pin to unknown device should fail")
	}
	if _, err := s.Submit(req(2, 10), SubmitOptions{Policy: Policy("bogus")}); err == nil {
		t.Fatal("unknown policy should fail")
	}
	if err := s.AddDevice("a", mkdev(t, "a2", 2, 2, 2, 0), 1); err == nil {
		t.Fatal("duplicate device name should fail")
	}
}

// TestNegativeDeadlineIsRefused: a deadline below zero is a malformed
// request, refused like zero shots — keyed or not, it mints no job and
// binds no key — not a job that silently never expires.
func TestNegativeDeadlineIsRefused(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	bad := req(2, 10)
	bad.DeadlineMs = -1
	for _, key := range []string{"", "k"} {
		if id, _, err := s.SubmitKeyed(bad, SubmitOptions{IdemKey: key}); err == nil || !strings.Contains(err.Error(), "deadline_ms") {
			t.Errorf("deadline_ms -1 (key %q): job %d, err %v; want a deadline_ms refusal", key, id, err)
		}
	}
	if m := s.Metrics(); m.Submitted != 0 {
		t.Errorf("refused submissions minted %d jobs", m.Submitted)
	}
	if _, replayed, err := s.SubmitKeyed(req(2, 10), SubmitOptions{IdemKey: "k"}); err != nil || replayed {
		t.Errorf("first valid submission under the refused key: replayed %v, err %v", replayed, err)
	}
}

func TestBestFidelityPrefersHealthierDevice(t *testing.T) {
	// Two same-shape devices; one has drifted uncalibrated for two weeks.
	// Drift acts on noisy and twin devices alike (the record is the same);
	// the router must prefer the fresh one.
	fresh := mkdev(t, "fresh", 4, 5, 1, 0)
	stale := mkdev(t, "stale", 4, 5, 2, 0)
	stale.QPU().AdvanceDrift(24 * 14)

	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("stale", stale, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("fresh", fresh, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		id, err := s.Submit(req(4, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != JobDone {
			t.Fatalf("job %d: %s (%s)", id, j.Status, j.Error)
		}
		if j.Device != "fresh" {
			t.Fatalf("job %d routed to %q, want the fresh device", id, j.Device)
		}
		if j.Score <= 0 || j.Score > 1 {
			t.Fatalf("job %d: score %v outside (0,1]", id, j.Score)
		}
	}
}

func TestWidthFitRouting(t *testing.T) {
	small := mkdev(t, "small", 3, 3, 1, 0) // 9 qubits
	big := mkdev(t, "big", 5, 5, 2, 0)     // 25 qubits
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("small", small, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("big", big, 1); err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(req(16, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != JobDone || j.Device != "big" {
		t.Fatalf("16q job: status %s on %q, want done on big", j.Status, j.Device)
	}
	if _, err := s.Submit(req(26, 5), SubmitOptions{}); err == nil {
		t.Fatal("26q circuit should not fit a 25q fleet")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	s := New(PolicyRoundRobin, nil)
	defer s.Stop()
	for _, name := range []string{"a", "b", "c"} {
		if err := s.AddDevice(name, mkdev(t, name, 2, 2, 1, 0), 1); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int
	for i := 0; i < 9; i++ {
		id, err := s.Submit(req(3, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if j, err := s.Wait(id); err != nil || j.Status != JobDone {
			t.Fatalf("job %d did not complete: %+v %v", id, j, err)
		}
	}
	m := s.Metrics()
	for _, d := range m.Devices {
		if d.Routed != 3 {
			t.Fatalf("round-robin: device %s got %d jobs, want 3", d.Name, d.Routed)
		}
	}
}

func TestLeastLoadedAvoidsBusyDevice(t *testing.T) {
	busy := mkdev(t, "busy", 2, 2, 1, 50*time.Millisecond)
	idle := mkdev(t, "idle", 2, 2, 2, 0)
	s := New(PolicyLeastLoaded, nil)
	defer s.Stop()
	if err := s.AddDevice("busy", busy, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("idle", idle, 1); err != nil {
		t.Fatal(err)
	}
	// Fill the busy device's queue via pinning.
	var pinned []int
	for i := 0; i < 4; i++ {
		id, err := s.Submit(req(2, 5), SubmitOptions{Device: "busy"})
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, id)
	}
	id, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Device != "idle" {
		t.Fatalf("least-loaded routed to %q with a busy sibling queue", j.Device)
	}
	for _, id := range pinned {
		if j, err := s.Wait(id); err != nil || j.Status != JobDone {
			t.Fatalf("pinned job %d: %+v %v", id, j, err)
		}
	}
}

// TestDrainLeavesQueuedJobsToSiblings: draining a loaded device moves
// nothing. Its queued jobs were never bound to it, so they finish on the
// sibling that resumed, with no migration and no migrated event.
func TestDrainLeavesQueuedJobsToSiblings(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 20*time.Millisecond)
	b := mkdev(t, "b", 2, 2, 2, 0)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("b", b, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain("b"); err != nil {
		t.Fatal(err)
	}
	sub := s.Events().Subscribe(0, 256)
	defer sub.Close()
	// Only a claims (b is draining); a's single paced worker leaves a backlog.
	var ids []int
	for i := 0; i < 8; i++ {
		id, err := s.Submit(req(3, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Drain("a"); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.StateOf("a"); st != DeviceDraining {
		t.Fatalf("a state %s, want draining", st)
	}
	if err := s.Resume("b"); err != nil {
		t.Fatal(err)
	}
	onB := 0
	for _, id := range ids {
		j, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != JobDone {
			t.Fatalf("job %d lost to the drain: %s (%s)", id, j.Status, j.Error)
		}
		if j.Migrations != 0 {
			t.Fatalf("job %d migrated %d times; a drain moves nothing", id, j.Migrations)
		}
		if j.Device == "b" {
			onB++
		}
	}
	if onB == 0 {
		t.Fatal("no queued job finished on the resumed sibling")
	}
	if m := s.Metrics(); m.Migrated != 0 || m.Failed != 0 {
		t.Fatalf("metrics after drain: migrated=%d failed=%d, want 0/0", m.Migrated, m.Failed)
	}
	for len(sub.Events()) > 0 {
		if ev := <-sub.Events(); ev.Reason == "migrated" {
			t.Fatalf("drain published a migrated event: %+v", ev)
		}
	}
}

func TestFailoverForInFlightFault(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 150*time.Millisecond)
	b := mkdev(t, "b", 2, 2, 2, 0)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("b", b, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain("b"); err != nil {
		t.Fatal(err)
	}
	// The next execution on a faults after its 150 ms round trip; Fail(a)
	// lands inside that window, so the job error is attributed to the device
	// and failed over rather than reported as a job defect.
	a.QPU().InjectFaults(1)
	id, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the worker claim it
	if err := s.Fail("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume("b"); err != nil {
		t.Fatal(err)
	}
	j, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != JobDone {
		t.Fatalf("failover lost the job: %s (%s)", j.Status, j.Error)
	}
	if j.Device != "b" || j.Migrations == 0 {
		t.Fatalf("job finished on %q with %d migrations, want b with >= 1", j.Device, j.Migrations)
	}
}

func TestGenuineJobFailureIsNotFailedOver(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 0)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	// A fault on an otherwise healthy (active) device is a job error: it
	// must surface to the submitter, not bounce around the fleet.
	a.QPU().InjectFaults(1)
	id, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != JobFailed || j.Error == "" {
		t.Fatalf("want failed job with error, got %s (%q)", j.Status, j.Error)
	}
	if j.Result == nil || j.Result.CompiledGates == 0 || j.Result.Counts != nil {
		t.Fatalf("result of a run that failed on the QPU = %+v, want its compile artefacts and no counts", j.Result)
	}
}

func TestParkedJobsDispatchOnResume(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 0)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain("a"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != JobQueued {
		t.Fatalf("job on a fully drained fleet should wait queued, got %s", j.Status)
	}
	if m := s.Metrics(); m.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", m.QueueDepth)
	}
	if err := s.Resume("a"); err != nil {
		t.Fatal(err)
	}
	if j, err = s.Wait(id); err != nil || j.Status != JobDone {
		t.Fatalf("parked job did not run after resume: %+v %v", j, err)
	}
}

func TestPinnedJobWaitsForItsDevice(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 0)
	b := mkdev(t, "b", 2, 2, 2, 0)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("b", b, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain("a"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(req(2, 5), SubmitOptions{Device: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := s.Job(id); j.Status != JobQueued {
		t.Fatalf("pinned job should wait queued while its device drains, got %s", j.Status)
	}
	if err := s.Resume("a"); err != nil {
		t.Fatal(err)
	}
	j, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != JobDone || j.Device != "a" {
		t.Fatalf("pinned job: %s on %q, want done on a", j.Status, j.Device)
	}
}

func TestMaintenanceWindowDrainsAndRestores(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 0)
	b := mkdev(t, "b", 2, 2, 2, 0)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("b", b, 1); err != nil {
		t.Fatal(err)
	}
	plan := ops.MaintenancePlan(400, 100) // windows at days 100, 200, 300
	if err := s.SetMaintenancePlan("a", plan); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(50)
	if st, _ := s.StateOf("a"); st != DeviceActive {
		t.Fatalf("day 50: a is %s, want active", st)
	}
	s.AdvanceTo(100.5)
	if st, _ := s.StateOf("a"); st != DeviceMaintenance {
		t.Fatalf("day 100.5: a is %s, want maintenance", st)
	}
	// Work submitted during the window routes to the sibling.
	id, err := s.Submit(req(3, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := s.Wait(id); err != nil || j.Device != "b" {
		t.Fatalf("job during maintenance window: %+v %v, want device b", j, err)
	}
	s.AdvanceTo(101.5)
	if st, _ := s.StateOf("a"); st != DeviceActive {
		t.Fatalf("day 101.5: a is %s, want active again", st)
	}
	// Manual states survive AdvanceTo.
	if err := s.Fail("a"); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(102)
	if st, _ := s.StateOf("a"); st != DeviceFailed {
		t.Fatalf("AdvanceTo overrode a manual failure state: %s", st)
	}
}

func TestCancelParkedAndQueued(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 50*time.Millisecond)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain("a"); err != nil {
		t.Fatal(err)
	}
	parked, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(parked); err != nil {
		t.Fatal(err)
	}
	if j, _ := s.Job(parked); j.Status != JobCancelled {
		t.Fatalf("parked job after cancel: %s", j.Status)
	}
	if err := s.Resume("a"); err != nil {
		t.Fatal(err)
	}
	// Queue two; the second sits behind the 50 ms first and is cancellable.
	first, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(second); err != nil {
		t.Fatalf("cancelling a queued routed job: %v", err)
	}
	if j, _ := s.Job(second); j.Status != JobCancelled {
		t.Fatalf("queued job after cancel: %s", j.Status)
	}
	if j, err := s.Wait(first); err != nil || j.Status != JobDone {
		t.Fatalf("first job: %+v %v", j, err)
	}
	if m := s.Metrics(); m.Cancelled != 2 {
		t.Fatalf("cancelled counter = %d, want 2", m.Cancelled)
	}
}

func TestTelemetryPublishing(t *testing.T) {
	store := telemetry.NewStore(0)
	s := New(PolicyBestFidelity, store)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	s.PublishMetrics(nil, 10)
	for _, sensor := range []string{"fleet_routed", "fleet_completed", "fleet_queue_depth", "fleet_a_fidelity_cz", "fleet_a_cache_hit_ratio", "fleet_a_e2e_p95_ms"} {
		if _, ok := store.Latest(sensor); !ok {
			t.Fatalf("sensor %q not published (have %v)", sensor, store.Sensors())
		}
	}
	if v, _ := store.Latest("fleet_completed"); v.Value != 1 {
		t.Fatalf("fleet_completed = %v, want 1", v.Value)
	}
	// The fleet is also a DCDB collector plugin.
	if s.CollectorName() != "fleet" {
		t.Fatalf("collector name %q", s.CollectorName())
	}
	if g := s.Collect(); g["fleet_devices"] != 1 {
		t.Fatalf("collector gauges: %v", g)
	}
}

func TestStopFailsOutstandingWork(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 30*time.Millisecond)
	s := New(PolicyBestFidelity, nil)
	if err := s.AddDevice("a", a, 1); err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := s.Submit(req(2, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Stop()
	s.Stop() // idempotent
	for _, id := range ids {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status.Terminal() {
			t.Fatalf("job %d left non-terminal after Stop: %s", id, j.Status)
		}
	}
	if _, err := s.Submit(req(2, 5), SubmitOptions{}); err == nil {
		t.Fatal("submit after Stop should fail")
	}
}

// TestSetIDLimitRefusesAtBlockEnd pins the federation ID-stride
// spillover guard at the fleet layer: once every ID up to the limit has
// been minted, submission is refused instead of silently minting into
// the next member's block (which would misroute owner lookups).
func TestSetIDLimitRefusesAtBlockEnd(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	s.SetIDBase(40)
	s.SetIDLimit(42) // block (40, 42]: exactly two mintable IDs
	for want := 41; want <= 42; want++ {
		id, err := s.Submit(req(2, 1), SubmitOptions{})
		if err != nil {
			t.Fatalf("submit inside the block: %v", err)
		}
		if id != want {
			t.Fatalf("minted id %d, want %d", id, want)
		}
	}
	if _, err := s.Submit(req(2, 1), SubmitOptions{}); err == nil || !strings.Contains(err.Error(), "job-ID space exhausted") {
		t.Fatalf("submit past the block end: err = %v, want job-ID space exhausted", err)
	}
}

// TestResumeBeforeMonitorDoesNotStrandJobs: a device is drained and
// resumed while no worker can run (the scheduler lock is held across both).
// Once this raced a drain's migrations into parking beside an active device;
// now a drain moves nothing, and every job still runs on the resumed device.
func TestResumeBeforeMonitorDoesNotStrandJobs(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("solo", mkdev(t, "solo", 2, 2, 1, 20*time.Millisecond), 1); err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 4; i++ {
		id, err := s.Submit(req(2, 5), SubmitOptions{Device: "solo"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.mu.Lock()
	e := s.devices["solo"]
	s.setStateLocked(e, DeviceDraining)
	time.Sleep(5 * time.Millisecond)
	s.setStateLocked(e, DeviceActive)
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range ids {
		j, err := s.WaitContext(ctx, id)
		if err != nil {
			m := s.Metrics()
			t.Fatalf("job %d stranded (%v): %d queued with the device %s", id, err, m.QueueDepth, m.Devices[0].State)
		}
		if j.Status != JobDone || j.Migrations != 0 {
			t.Errorf("job %d = %s (%s) after %d migrations, want done after none", id, j.Status, j.Error, j.Migrations)
		}
	}
}
