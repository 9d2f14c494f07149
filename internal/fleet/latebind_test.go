package fleet

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/tenant"
)

// waitStatus polls until job id reaches want.
func waitStatus(t *testing.T, s *Scheduler, id int, want JobStatus) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if j, _ := s.Job(id); j.Status == want || (want == JobRouted && j.Status == JobRunning) {
			return
		}
		if time.Now().After(deadline) {
			j, _ := s.Job(id)
			t.Fatalf("job %d is %s, never reached %s", id, j.Status, want)
		}
	}
}

// fresherThan asserts the router prefers device a over b for c by more than
// the load margin, on their current calibrations.
func fresherThan(t *testing.T, s *Scheduler, a, b string, c *circuit.Circuit) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ea, eb := s.devices[a], s.devices[b]
	fa := ea.estimateFidelity(ea.dev.QPU().Epoch(), c)
	fb := eb.estimateFidelity(eb.dev.QPU().Epoch(), c)
	if fa-fb <= 0.01 {
		t.Fatalf("%s scores %.4f, %s %.4f: want %s ahead by more than 0.01", a, fa, b, fb, a)
	}
}

// TestScoreMemoOncePerJobDeviceEpoch: however often idle workers rescan
// the queue, the router estimates a job's fidelity on a device at most once
// per published calibration epoch of that device.
func TestScoreMemoOncePerJobDeviceEpoch(t *testing.T) {
	best := mkdev(t, "best", 2, 3, 1, 30*time.Millisecond)
	sib := mkdev(t, "sib", 2, 3, 2, 0)
	sib.QPU().AdvanceDrift(24 * 28)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("best", best, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("sib", sib, 1); err != nil {
		t.Fatal(err)
	}
	fresherThan(t, s, "best", "sib", circuit.GHZ(3))
	const jobs = 20
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(req(3, 5), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	evals := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.scoreEvals
	}
	// Each Resume of the idle sibling wakes its worker, which rescans the
	// whole queue and declines every job: best is better and only busy.
	wake := func() {
		for i := 0; i < 50; i++ {
			if err := s.Resume("sib"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	wake()
	if n := evals(); n > jobs*2 {
		t.Fatalf("%d fidelity estimates for %d jobs on 2 devices on one epoch each, want <= %d", n, jobs, jobs*2)
	}
	// A drift tick on the sibling rescores each job there once more.
	sib.QPU().AdvanceDrift(1)
	wake()
	if n := evals(); n > jobs*3 {
		t.Fatalf("%d fidelity estimates after the sibling's second epoch, want <= %d", n, jobs*3)
	}
}

// TestDriftReroutesQueuedWork: under best-fidelity, jobs queue behind the
// busy best device; when its calibration drifts far below its sibling's,
// the queued jobs — bound to no device — run on the sibling.
func TestDriftReroutesQueuedWork(t *testing.T) {
	best := mkdev(t, "best", 2, 3, 1, 40*time.Millisecond)
	sib := mkdev(t, "sib", 2, 3, 2, 0)
	sib.QPU().AdvanceDrift(24 * 28)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("best", best, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("sib", sib, 1); err != nil {
		t.Fatal(err)
	}
	fresherThan(t, s, "best", "sib", circuit.GHZ(3))
	first, err := s.Submit(req(3, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, first, JobRouted)
	var queued []int
	for i := 0; i < 5; i++ {
		id, err := s.Submit(req(3, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}
	time.Sleep(5 * time.Millisecond) // the idle sibling has scanned and declined
	for _, id := range queued {
		if j, _ := s.Job(id); j.Status != JobQueued {
			t.Fatalf("job %d is %s on %q; it should wait for the best device", id, j.Status, j.Device)
		}
	}
	best.QPU().AdvanceDrift(24 * 120)
	fresherThan(t, s, "sib", "best", circuit.GHZ(3))
	for _, id := range queued {
		j, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != JobDone || j.Device != "sib" {
			t.Errorf("queued job %d = %s on %q, want done on the sibling after the drift", id, j.Status, j.Device)
		}
	}
}

// TestGoroutinesFlatInQueueDepth: a queued job costs no goroutine. 500 jobs
// behind a one-worker paced device leave the goroutine count where it was.
func TestGoroutinesFlatInQueueDepth(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 50*time.Millisecond), 1); err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, first, JobRouted)
	before := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		if _, err := s.Submit(req(2, 5), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after-before >= 10 {
		t.Fatalf("goroutines %d -> %d with 500 jobs queued, want growth < 10", before, after)
	}
}

// TestWaiterRunsBeforeTheNextJob: a worker that settles a job lets the
// job's waiter run before it starts the next one, even with no idle P to
// steal the waiter. On one P, with a queue of jobs, the caller of Wait on
// job i must find job i+1 not yet done; without the yield the worker runs
// the whole queue before the waiter gets the P back.
func TestWaiterRunsBeforeTheNextJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 3, 4, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	const jobs = 20
	ids := make([]int, jobs)
	for i := range ids {
		id, err := s.Submit(req(5, 100), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	early := 0
	for i := 0; i+1 < jobs; i++ {
		if _, err := s.Wait(ids[i]); err != nil {
			t.Fatal(err)
		}
		if next, _ := s.Job(ids[i+1]); !next.Status.Terminal() {
			early++
		}
	}
	// The scheduler may resume the worker first now and then, and a
	// preemption may hand the waiter the P: a majority, not every time.
	if early < jobs/2 {
		t.Fatalf("the waiter of job i ran before job i+1 settled %d times of %d, want >= %d", early, jobs-1, jobs/2)
	}
}

// TestAdmissionIsFleetWide: the per-tenant queue bound holds across the
// fleet, not per device. Two busy one-worker devices leave one tenant at
// most MaxTenantQueue queued jobs, and the rest are shed.
func TestAdmissionIsFleetWide(t *testing.T) {
	s := New(PolicyLeastLoaded, nil)
	defer s.Stop()
	for i, name := range []string{"a", "b"} {
		if err := s.AddDevice(name, mkdev(t, name, 2, 2, int64(i+1), 50*time.Millisecond), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.SetAdmission(tenant.Admission{MaxTenantQueue: 2})
	for i := 0; i < 2; i++ { // one on each device's QPU
		id, err := s.Submit(req(2, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, s, id, JobRouted)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(req(2, 5), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
		if u := s.TenantUsage(); u[0].Queued > 2 {
			t.Fatalf("after submission %d the tenant has %d jobs queued, bound 2", i+3, u[0].Queued)
		}
	}
	if u := s.TenantUsage()[0]; u.Queued != 2 || u.Shed != 4 {
		t.Fatalf("tenant row %+v, want 2 queued and 4 shed", u)
	}
}

// TestTenantUsageCountsFailoverOnce: a job that failed over to a sibling is
// one submission in its tenant's row, not one per device that ran it.
func TestTenantUsageCountsFailoverOnce(t *testing.T) {
	a := mkdev(t, "a", 2, 2, 1, 100*time.Millisecond)
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
	a.QPU().InjectFaults(1)
	id, err := s.Submit(req(2, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, id, JobRunning)
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
	if j.Status != JobDone || j.Device != "b" || j.Migrations != 1 {
		t.Fatalf("job = %s on %q after %d migrations, want done on b after 1", j.Status, j.Device, j.Migrations)
	}
	if u := s.TenantUsage(); len(u) != 1 || u[0].Submitted != 1 || u[0].Completed != 1 || u[0].Failed != 0 {
		t.Fatalf("tenant rows %+v, want one submission, completed once", u)
	}
}
