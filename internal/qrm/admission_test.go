package qrm_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/qrm"
	"repro/internal/tenant"
)

func TestShedPerTenantBound(t *testing.T) {
	f := twinFleet(t, 31, 1)
	release := hold(t, f)
	f.SetAdmission(tenant.Admission{MaxTenantQueue: 2})
	ids := make([]int, 4)
	for i := range ids {
		ids[i] = submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, User: "a"})
	}
	if m := f.Metrics(); m.QueueDepth != 2 {
		t.Fatalf("queue depth = %d, want 2", m.QueueDepth)
	}
	// The overflowing submissions (newest first) were shed, not silently
	// dropped: terminal failed records with the shed error.
	for _, id := range ids[2:] {
		if j, _ := f.Job(id); j.Status != fleet.JobFailed || j.Error != qrm.ErrShedMsg {
			t.Fatalf("overflow job %d = %s %q, want shed", id, j.Status, j.Error)
		}
	}
	if got := f.Metrics().Shed; got != 2 {
		t.Fatalf("metrics shed = %d, want 2", got)
	}
	release()
	for _, id := range ids[:2] {
		await(t, f, id)
	}
	// Conservation: every submission is accounted exactly once.
	u := f.TenantUsage()
	if len(u) != 1 {
		t.Fatalf("tenant rows = %+v", u)
	}
	a := u[0]
	if a.Submitted != 4 || a.Shed != 2 || a.Completed != 2 || a.Queued != 0 {
		t.Fatalf("conservation broke: %+v", a)
	}
}

func TestShedGlobalHighWaterEvictsLowestPriority(t *testing.T) {
	f := twinFleet(t, 32, 1)
	hold(t, f)
	f.SetAdmission(tenant.Admission{HighWater: 2})
	lowA := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, User: "x", Priority: 0})
	lowB := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, User: "y", Priority: 0})
	high := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, User: "z", Priority: 9})
	// The high-priority submission pushed the queue over the mark; the
	// victim must be the lowest-priority newest job, not the arrival.
	if j, _ := f.Job(lowB); j.Status != fleet.JobFailed || j.Error != qrm.ErrShedMsg {
		t.Fatalf("expected lowB shed, got %s %q", j.Status, j.Error)
	}
	for _, id := range []int{lowA, high} {
		if j, _ := f.Job(id); j.Status != fleet.JobQueued {
			t.Fatalf("job %d should still be queued, got %s", id, j.Status)
		}
	}
	if m := f.Metrics(); m.QueueDepth != 2 {
		t.Fatalf("queue depth = %d, want 2", m.QueueDepth)
	}
}

func TestAdmissionDisabledByDefault(t *testing.T) {
	f := twinFleet(t, 33, 1)
	hold(t, f)
	for i := 0; i < 50; i++ {
		submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, User: "a"})
	}
	if m := f.Metrics(); m.QueueDepth != 50 || m.Shed != 0 {
		t.Fatalf("default config must not shed: depth=%d shed=%d", m.QueueDepth, m.Shed)
	}
}
