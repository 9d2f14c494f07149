package qrm

import (
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/tenant"
)

// mkJob builds a queued job directly for fairQueue unit tests.
func mkJob(id int, user string, prio int, wall time.Time) *Job {
	return &Job{
		ID:         id,
		Status:     StatusQueued,
		Request:    Request{User: user, Priority: prio},
		SubmitTime: float64(id), // submission order for tie-breaks
		submitWall: wall,
	}
}

func TestFairQueueInterleavesTenants(t *testing.T) {
	f := newFairQueue()
	t0 := time.Unix(0, 0)
	for i := 1; i <= 4; i++ {
		f.push(mkJob(i, "a", 0, t0))
	}
	for i := 5; i <= 8; i++ {
		f.push(mkJob(i, "b", 0, t0))
	}
	// Tenant a queued first, but WFQ alternates claims instead of draining
	// a's backlog: a b a b a b a b.
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	for i, w := range want {
		j := f.pop(t0)
		if j == nil || j.Request.User != w {
			t.Fatalf("claim %d = %+v, want tenant %s", i, j, w)
		}
	}
	if f.pop(t0) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestFairQueueFloodCannotStarve(t *testing.T) {
	f := newFairQueue()
	t0 := time.Unix(0, 0)
	for i := 1; i <= 100; i++ {
		f.push(mkJob(i, "hog", 0, t0))
	}
	f.push(mkJob(101, "small", 0, t0))
	// The 100-job flood arrived first, but the small tenant's single job is
	// claimed on the second slot, not the 101st.
	for i := 0; i < 2; i++ {
		if j := f.pop(t0); j.Request.User == "small" {
			return
		}
	}
	t.Fatal("small tenant's job not claimed within 2 slots of a 100-job flood")
}

func TestFairQueueAgingBreaksPriorityLockout(t *testing.T) {
	f := newFairQueue()
	t0 := time.Unix(0, 0)
	f.push(mkJob(0, "be", 0, t0)) // one best-effort job, submitted at t0
	// A deadline-heavy tenant keeps submitting fresh priority-9 jobs every
	// 100ms. Raw priority would lock the best-effort job out forever;
	// aging must get it claimed once it has waited long enough.
	claimedAt := -1
	for i := 1; i <= 40; i++ {
		now := t0.Add(time.Duration(i) * 100 * time.Millisecond)
		f.push(mkJob(i, "vip", 9, now))
		if j := f.pop(now); j.Request.User == "be" {
			claimedAt = i
			break
		}
	}
	if claimedAt < 0 {
		t.Fatal("best-effort job locked out for 4s by a priority-9 flood")
	}
	if claimedAt < 2 {
		t.Fatalf("priority head start missing: best-effort claimed on slot %d", claimedAt)
	}
}

func TestShedPerTenantBound(t *testing.T) {
	m := newManager(31)
	m.SetAdmission(tenant.Admission{MaxTenantQueue: 2})
	hs := make([]Handle, 4)
	for i := range hs {
		hs[i] = submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, User: "a"})
	}
	if queued, _ := m.Load(); queued != 2 {
		t.Fatalf("queue depth = %d, want 2", queued)
	}
	// The overflowing submissions (newest first) were shed, not silently
	// dropped: terminal failed records with the shed error.
	for _, h := range hs[2:] {
		if j := h.Record(); j.Status != StatusFailed || j.Error != ErrShedMsg {
			t.Fatalf("overflow job %d = %s %q, want shed", j.ID, j.Status, j.Error)
		}
	}
	if got := m.Metrics().Shed; got != 2 {
		t.Fatalf("metrics shed = %d, want 2", got)
	}
	start(t, m, 1)
	for _, h := range hs[:2] {
		await(t, h)
	}
	// Conservation: every submission is accounted exactly once.
	u := m.TenantUsage()
	if len(u) != 1 {
		t.Fatalf("tenant rows = %+v", u)
	}
	a := u[0]
	if a.Submitted != 4 || a.Shed != 2 || a.Completed != 2 || a.Queued != 0 {
		t.Fatalf("conservation broke: %+v", a)
	}
}

func TestShedGlobalHighWaterEvictsLowestPriority(t *testing.T) {
	m := newManager(32)
	m.SetAdmission(tenant.Admission{HighWater: 2})
	lowA := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, User: "x", Priority: 0})
	lowB := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, User: "y", Priority: 0})
	high := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, User: "z", Priority: 9})
	// The high-priority submission pushed the queue over the mark; the
	// victim must be the lowest-priority newest job, not the arrival.
	if j := lowB.Record(); j.Status != StatusFailed || j.Error != ErrShedMsg {
		t.Fatalf("expected lowB shed, got %s %q", j.Status, j.Error)
	}
	for _, h := range []Handle{lowA, high} {
		if j := h.Record(); j.Status != StatusQueued {
			t.Fatalf("job %d should still be queued, got %s", j.ID, j.Status)
		}
	}
	if queued, _ := m.Load(); queued != 2 {
		t.Fatalf("queue depth = %d, want 2", queued)
	}
}

func TestAdmissionDisabledByDefault(t *testing.T) {
	m := newManager(33)
	for i := 0; i < 50; i++ {
		submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 10, User: "a"})
	}
	if queued, _ := m.Load(); queued != 50 || m.Metrics().Shed != 0 {
		t.Fatalf("default config must not shed: depth=%d shed=%d", queued, m.Metrics().Shed)
	}
}
