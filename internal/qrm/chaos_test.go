package qrm_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qrm"
)

// Chaos-regression tests for the pipeline's fragile edges: cancellation
// racing the terminal transition, records read while workers finish, and a
// scheduler stopping under its waiters. These are exact-invariant tests, not
// smoke — a lost or double-counted transition fails them.

// TestCancelRacesTerminalTransition fires a cancel at every job from a
// concurrent goroutine with a staggered delay, so cancellations land in
// every pipeline stage: still queued, compiling, mid-execution, and after
// the terminal transition (where Cancel must refuse). The invariants:
// every job ends done or cancelled (never failed, never stuck), and the
// terminal counters — the fleet's, the device's and the tenant's —
// partition the submissions exactly.
func TestCancelRacesTerminalTransition(t *testing.T) {
	qpu := device.NewTwin20Q(77)
	qpu.SetExecLatency(300 * time.Microsecond)
	f := newFleet(t, qpu, 4)

	const jobs = 160
	ids := make([]int, 0, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(3 + i%3), Shots: 5, User: "chaos"})
		ids = append(ids, id)
		wg.Add(1)
		go func(id, i int) {
			defer wg.Done()
			// Staggered across the queue's full drain time (~160 jobs x
			// 300µs / 4 workers), so cancels land in every stage: queued,
			// compiling, mid-execution, and already terminal.
			time.Sleep(time.Duration(i) * 75 * time.Microsecond)
			if err := f.Cancel(id); err != nil && !errors.Is(err, fleet.ErrJobTerminal) {
				t.Errorf("cancel %d: %v", id, err)
			}
		}(id, i)
	}
	wg.Wait()

	done, cancelled := 0, 0
	for _, id := range ids {
		j := await(t, f, id)
		switch j.Status {
		case fleet.JobDone:
			done++
		case fleet.JobCancelled:
			cancelled++
			if j.Result != nil && len(j.Result.Counts) != 0 {
				t.Errorf("job %d cancelled but carries results", id)
			}
		default:
			t.Errorf("job %d ended %s (%s) — cancel vs terminal race leaked a state", id, j.Status, j.Error)
		}
	}
	f.Stop() // every worker has settled its job: nothing can touch a record now
	for _, id := range ids {
		if err := f.Cancel(id); err == nil {
			t.Errorf("job %d: cancel of a terminal job succeeded", id)
		}
	}

	m := f.Metrics()
	if m.Completed != uint64(done) || m.Cancelled != uint64(cancelled) {
		t.Errorf("metrics done/cancelled = %d/%d, records say %d/%d",
			m.Completed, m.Cancelled, done, cancelled)
	}
	if m.Completed+m.Cancelled != jobs || m.Failed != 0 {
		t.Errorf("terminal counters don't partition %d jobs: done %d + cancelled %d, failed %d",
			jobs, m.Completed, m.Cancelled, m.Failed)
	}
	if dev := m.Devices[0].QRM; dev.Completed != m.Completed || dev.Cancelled > m.Cancelled {
		t.Errorf("device done/cancelled %d/%d against the fleet's %d/%d", dev.Completed, dev.Cancelled, m.Completed, m.Cancelled)
	}
	u := f.TenantUsage()
	if len(u) != 1 || u[0].Submitted != jobs || u[0].Completed != uint64(done) ||
		u[0].Cancelled != uint64(cancelled) || u[0].Queued != 0 {
		t.Errorf("tenant row %+v does not partition %d jobs into %d done + %d cancelled", u, jobs, done, cancelled)
	}
	t.Logf("%d done, %d cancelled", done, cancelled)
}

// TestHandleRacesFinish hammers Cancel and Job from other goroutines while
// workers run the jobs to their terminal transition (the -race workout for
// the records a caller reads): a record read after the job settled is
// final, and no status other than done or cancelled appears.
func TestHandleRacesFinish(t *testing.T) {
	qpu := device.NewTwin20Q(78)
	qpu.SetExecLatency(200 * time.Microsecond)
	f := newFleet(t, qpu, 4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(3), Shots: 5, User: "race"})
		wg.Add(2)
		go func() { // reader: poll the live record until it is terminal
			defer wg.Done()
			for {
				j, err := f.Job(id)
				if err != nil {
					t.Error(err)
					return
				}
				if j.Status.Terminal() {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
		go func(i int) { // canceller: every other job, somewhere mid-pipeline
			defer wg.Done()
			if i%2 == 0 {
				time.Sleep(time.Duration(i) * 40 * time.Microsecond)
				_ = f.Cancel(id)
			}
			final := await(t, f, id)
			if final.Status != fleet.JobDone && final.Status != fleet.JobCancelled {
				t.Errorf("job %d ended %s (%s)", id, final.Status, final.Error)
			}
			// A later read may come from the job's sealed record: the same
			// bytes, not the same pointers.
			again, _ := f.Job(id)
			want, _ := final.AppendJSON(nil)
			if got, _ := again.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Errorf("job %d changed after it settled:\n%s\n-> %s", id, want, got)
			}
		}(i)
	}
	wg.Wait()
}

// TestStopReleasesQueuedWaiters: a waiter on a job no worker claimed is
// released when the scheduler stops — the job fails in the queue, it never
// blocks — while waiters on claimed jobs get their results; the tenant row
// still balances.
func TestStopReleasesQueuedWaiters(t *testing.T) {
	qpu := device.NewTwin20Q(79)
	qpu.SetExecLatency(20 * time.Millisecond)
	f := newFleet(t, qpu, 1)
	const jobs = 12
	results := make(chan *fleet.Job, jobs)
	for i := 0; i < jobs; i++ {
		id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, User: "stop"})
		go func() { results <- await(t, f, id) }()
	}
	time.Sleep(5 * time.Millisecond) // let the waiters block and the worker claim
	f.Stop()
	finished, released := 0, 0
	for i := 0; i < jobs; i++ {
		select {
		case j := <-results:
			switch j.Status {
			case fleet.JobDone:
				finished++
			case fleet.JobFailed:
				released++
			default:
				t.Errorf("waiter got %s", j.Status)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d still blocked after Stop (%d finished, %d released)", i, finished, released)
		}
	}
	if released == 0 {
		t.Error("no waiter was on a queued job at Stop; the test did not exercise the release path")
	}
	u := f.TenantUsage()
	if len(u) != 1 || u[0].Submitted != jobs || u[0].Completed != uint64(finished) ||
		u[0].Failed != uint64(released) || u[0].Queued != 0 {
		t.Errorf("tenant row %+v, want %d submitted = %d completed + %d failed", u, jobs, finished, released)
	}
}
