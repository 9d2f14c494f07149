package fleet

import (
	"testing"
	"time"

	"repro/internal/qrm"
)

// mkJob builds a queued job directly for fairQueue unit tests.
func mkJob(id int, user string, prio int, wall time.Time) *Job {
	return &Job{ID: id, Request: qrm.Request{User: user, Priority: prio}, enqueued: wall}
}

// pop claims the next job in fair order, as a device that may take any.
func (f *fairQueue) pop(now time.Time) *Job {
	return f.claim(now, func(*Job) bool { return true })
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

// TestFairQueueClaimSkipsWhatTheDeviceCannotTake: a claim passes over jobs
// the claiming device may not take — the rest of the tenant's heap and the
// other tenants stay in fair order — and leaves them for a device that can.
func TestFairQueueClaimSkipsWhatTheDeviceCannotTake(t *testing.T) {
	f := newFairQueue()
	t0 := time.Unix(0, 0)
	f.push(mkJob(1, "a", 0, t0)) // a's head, which this device cannot take
	f.push(mkJob(2, "a", 0, t0))
	f.push(mkJob(3, "b", 0, t0))
	notOne := func(j *Job) bool { return j.ID != 1 }
	for i, want := range []int{2, 3} {
		if j := f.claim(t0, notOne); j == nil || j.ID != want {
			t.Fatalf("claim %d = %+v, want job %d", i, j, want)
		}
	}
	if j := f.claim(t0, notOne); j != nil {
		t.Fatalf("claim with only job 1 left = job %d, want none", j.ID)
	}
	if j := f.pop(t0); j == nil || j.ID != 1 || f.Len() != 0 {
		t.Fatalf("a device that may take job 1 claims %+v, queue left %d", j, f.Len())
	}
}
