package qrm

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/qdmi"
)

// Chaos-regression tests for the pipeline's fragile edges: cancellation
// racing the terminal transition, handles read while workers finish, and a
// pool stopping under its waiters. These are exact-invariant tests, not
// smoke — a lost or double-counted transition fails them.

// TestCancelRacesTerminalTransition fires a cancel at every job from a
// concurrent goroutine with a staggered delay, so cancellations land in
// every pipeline stage: still queued, compiling, mid-execution, and after
// the terminal transition (where Cancel must refuse). The invariants:
// every job ends done or cancelled (never failed, never stuck), the
// terminal counters — the manager's and the tenant's — partition the
// submissions exactly, and a record no longer changes once its handle's
// Done is closed (a second terminal transition would panic on the close).
func TestCancelRacesTerminalTransition(t *testing.T) {
	qpu := device.NewTwin20Q(77)
	qpu.SetExecLatency(300 * time.Microsecond)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	start(t, m, 4)

	const jobs = 160
	hs := make([]Handle, 0, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		h := submit(t, m, Request{Circuit: circuit.GHZ(3 + i%3), Shots: 5, User: "chaos"})
		hs = append(hs, h)
		wg.Add(1)
		go func(h Handle, i int) {
			defer wg.Done()
			// Staggered across the queue's full drain time (~160 jobs x
			// 300µs / 4 workers), so cancels land in every stage: queued,
			// compiling, mid-execution, and already terminal.
			time.Sleep(time.Duration(i) * 75 * time.Microsecond)
			h.Cancel() // error = already terminal; that's a legal outcome
		}(h, i)
	}
	wg.Wait()

	done, cancelled := 0, 0
	for _, h := range hs {
		j := await(t, h)
		switch j.Status {
		case StatusDone:
			done++
		case StatusCancelled:
			cancelled++
			if len(j.Counts) != 0 {
				t.Errorf("job %d cancelled but carries results", j.ID)
			}
		default:
			t.Errorf("job %d ended %s (%s) — cancel vs terminal race leaked a state", j.ID, j.Status, j.Error)
		}
	}
	m.Stop() // every worker has left finish: nothing can touch a record now
	for _, h := range hs {
		if err := h.Cancel(); err == nil {
			t.Errorf("job %d: cancel of a terminal job succeeded", h.ID())
		}
	}

	mm := m.Metrics()
	if mm.Completed != uint64(done) || mm.Cancelled != uint64(cancelled) {
		t.Errorf("metrics done/cancelled = %d/%d, records say %d/%d",
			mm.Completed, mm.Cancelled, done, cancelled)
	}
	if mm.Completed+mm.Cancelled != jobs || mm.Failed != 0 {
		t.Errorf("terminal counters don't partition %d jobs: done %d + cancelled %d, failed %d",
			jobs, mm.Completed, mm.Cancelled, mm.Failed)
	}
	u := m.TenantUsage()
	if len(u) != 1 || u[0].Submitted != jobs || u[0].Completed != uint64(done) ||
		u[0].Cancelled != uint64(cancelled) || u[0].Queued != 0 {
		t.Errorf("tenant row %+v does not partition %d jobs into %d done + %d cancelled", u, jobs, done, cancelled)
	}
	t.Logf("%d done, %d cancelled", done, cancelled)
}

// TestHandleRacesFinish hammers Cancel and Record from other goroutines
// while workers run the jobs to their terminal transition (the -race
// workout for the handle): a Record taken after Done is final, and no
// status other than done or cancelled appears.
func TestHandleRacesFinish(t *testing.T) {
	qpu := device.NewTwin20Q(78)
	qpu.SetExecLatency(200 * time.Microsecond)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	start(t, m, 4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		h := submit(t, m, Request{Circuit: circuit.GHZ(3), Shots: 5, User: "race"})
		wg.Add(2)
		go func() { // reader: poll the live record until it is terminal
			defer wg.Done()
			for !terminalStatus(h.Record().Status) {
				time.Sleep(50 * time.Microsecond)
			}
		}()
		go func(i int) { // canceller: every other job, somewhere mid-pipeline
			defer wg.Done()
			if i%2 == 0 {
				time.Sleep(time.Duration(i) * 40 * time.Microsecond)
				h.Cancel()
			}
			<-h.Done()
			final := h.Record()
			if final.Status != StatusDone && final.Status != StatusCancelled {
				t.Errorf("job %d ended %s (%s)", final.ID, final.Status, final.Error)
			}
			if again := h.Record(); again.Status != final.Status || again.EndTime != final.EndTime {
				t.Errorf("job %d changed after Done: %s -> %s", final.ID, final.Status, again.Status)
			}
		}(i)
	}
	wg.Wait()
}

// TestStopReleasesQueuedWaiters: a waiter on a job the pool never claimed
// gets an error when the pool stops — it never blocks — while waiters on
// claimed jobs get their records; the unclaimed jobs stay queued, and the
// tenant row still balances with them counted as queued.
func TestStopReleasesQueuedWaiters(t *testing.T) {
	qpu := device.NewTwin20Q(79)
	qpu.SetExecLatency(20 * time.Millisecond)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	const jobs = 12
	type result struct {
		j   *Job
		err error
	}
	results := make(chan result, jobs)
	for i := 0; i < jobs; i++ {
		h := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5, User: "stop"})
		go func() {
			j, err := h.Wait(context.Background())
			results <- result{j, err}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the waiters block and the worker claim
	m.Stop()
	finished, released := 0, 0
	for i := 0; i < jobs; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				released++
			} else if r.j.Status == StatusDone {
				finished++
			} else {
				t.Errorf("waiter got %s without an error", r.j.Status)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d still blocked after Stop (%d finished, %d released)", i, finished, released)
		}
	}
	if released == 0 {
		t.Error("no waiter was on a queued job at Stop; the test did not exercise the release path")
	}
	u := m.TenantUsage()
	if len(u) != 1 || u[0].Submitted != jobs || u[0].Completed != uint64(finished) || u[0].Queued != released {
		t.Errorf("tenant row %+v, want %d submitted = %d completed + %d queued", u, jobs, finished, released)
	}
}
