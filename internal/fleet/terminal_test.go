package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/tenant"
)

// TestTerminalJobIsNeverLive: a job turns terminal and is sealed in one hold
// of the scheduler's lock, so no reader finds it live and terminal. Jobs end
// every way a job can — done, shed, expired in the queue, cancelled queued or
// held by a worker, failed at Stop — while readers scan the scheduler: no
// View or ListViews gives a live copy of a terminal job, no Peek of a job in
// s.jobs reads a terminal status, and s.jobs holds none. Each job has a
// waiter blocked in Await before it can settle, and once Await returns, View
// gives the job's sealed record.
func TestTerminalJobIsNeverLive(t *testing.T) {
	s := New(PolicyLeastLoaded, nil)
	for i, name := range []string{"a", "b"} {
		if err := s.AddDevice(name, mkdev(t, name, 2, 2, int64(i+1), 200*time.Microsecond), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.SetAdmission(tenant.Admission{MaxTenantQueue: 12})

	var (
		mu       sync.Mutex
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				views, _ := s.ListViews("", nil, 0, 40, false, &buf)
				for _, v := range views {
					if v.Live != nil && v.Live.Status.Terminal() {
						fail("ListViews: job %d live and %s", v.ID, v.Live.Status)
					}
				}
				s.mu.Lock()
				newest := s.nextID
				for id, j := range s.jobs {
					if st, _, _, _ := s.peekLocked(id); st.Terminal() || j.Status.Terminal() {
						fail("job %d in s.jobs is %s (Peek reads %s)", id, j.Status, st)
					}
				}
				s.mu.Unlock()
				for id := newest; id > 0 && id > newest-8; id-- {
					if v, err := s.View(id, true, &buf); err == nil && v.Live != nil && v.Live.Status.Terminal() {
						fail("View: job %d live and %s", id, v.Live.Status)
					}
				}
			}
		}()
	}

	const batch, batches, held = 20, 15, 10
	const jobs = batch*batches + held
	var waiters sync.WaitGroup
	submit := func(i int) {
		r := req(2, 5)
		r.User = fmt.Sprintf("u%d", i%3)
		if i%7 == 3 {
			r.DeadlineMs = 0.05 // expires if it waits in the queue
		}
		id, err := s.Submit(r, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			if err := s.Await(context.Background(), id); err != nil {
				fail("Await(%d): %v", id, err)
				return
			}
			if v, err := s.View(id, false, nil); err != nil || v.Live != nil {
				fail("job %d after Await: live %v (%v), want its sealed record", id, v.Live != nil, err)
			}
		}()
		if i%5 == 0 {
			_ = s.Cancel(id) // queued: cancelled at once; held: at the worker's next stage
		}
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < batch; i++ {
			submit(b*batch + i)
		}
		waiters.Wait()
	}
	for _, name := range []string{"a", "b"} {
		if err := s.Drain(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < held; i++ {
		submit(batch*batches + i)
	}
	s.Stop() // what is still queued fails
	waiters.Wait()
	close(stop)
	readers.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	r := s.Retained()
	if len(r.Live) != 0 || r.Sealed != jobs {
		t.Fatalf("after Stop: live %v, %d sealed; want none live and %d sealed", r.Live, r.Sealed, jobs)
	}
	counts := map[JobStatus]int{}
	var buf []byte
	for id := 1; id <= jobs; id++ {
		v, err := s.View(id, false, &buf)
		if err != nil {
			t.Fatal(err)
		}
		counts[v.Sealed.Status]++
	}
	t.Logf("outcomes: %v", counts)
	for _, st := range []JobStatus{JobDone, JobFailed, JobCancelled} {
		if counts[st] == 0 {
			t.Errorf("no job ended %s: outcomes %v", st, counts)
		}
	}
}
