package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/qrm"
)

// TestFleetStressDrainFailoverNoLostJobs is the acceptance stress test: 4
// heterogeneous devices, 240 jobs submitted from concurrent clients while a
// drain/resume cycle, a maintenance window, and a device fault with injected
// execution errors all land mid-run. Every job must settle as done — zero
// lost, zero failed — with failover re-queues doing the bookkeeping. Run
// under -race.
func TestFleetStressDrainFailoverNoLostJobs(t *testing.T) {
	const (
		clients    = 8
		perClient  = 30 // 240 jobs total
		workersPer = 4
	)
	// Least-loaded keeps all four devices claiming; under best-fidelity a
	// backlog would wait for the single best one.
	s := New(PolicyLeastLoaded, nil)
	defer s.Stop()
	// Heterogeneous roster: different sizes, seeds, and pacing.
	// Per-job control-electronics pacing of a few ms guarantees a real
	// backlog exists when the chaos hits: 240 jobs x ~3 ms over 16 workers
	// is ~45 ms of service time, while submission takes well under 1 ms.
	shapes := []struct {
		name       string
		rows, cols int
		latency    time.Duration
	}{
		{"garnet-a", 4, 5, 3 * time.Millisecond},
		{"garnet-b", 3, 4, 2 * time.Millisecond},
		{"garnet-c", 4, 4, 10 * time.Millisecond},
		{"garnet-d", 3, 3, 2 * time.Millisecond},
	}
	faulty := mkdev(t, shapes[2].name, shapes[2].rows, shapes[2].cols, 3, shapes[2].latency)
	for i, sh := range shapes {
		dev := faulty
		if i != 2 {
			dev = mkdev(t, sh.name, sh.rows, sh.cols, int64(i+1), sh.latency)
		}
		if err := s.AddDevice(sh.name, dev, workersPer); err != nil {
			t.Fatal(err)
		}
	}

	circs := []*circuit.Circuit{circuit.GHZ(2), circuit.GHZ(3), circuit.GHZ(5), circuit.GHZ(8)}
	ids := make(chan int, clients*perClient)
	var submitCount int32
	halfway := make(chan struct{})
	var halfOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id, err := s.Submit(qrm.Request{
					Circuit: circs[(c+i)%len(circs)],
					Shots:   5,
					User:    fmt.Sprintf("stress-%d", c),
				}, SubmitOptions{})
				if err != nil {
					t.Errorf("client %d submit %d: %v", c, i, err)
					return
				}
				ids <- id
				if atomic.AddInt32(&submitCount, 1) == clients*perClient/2 {
					halfOnce.Do(func() { close(halfway) })
				}
			}
		}(c)
	}

	// Operational chaos, concurrent with the submitters, gated on half the
	// jobs being in (so a backlog provably exists): drain one device, fail
	// another while its workers hold executions its armed faults will fail
	// (those jobs must go back to the queue, not fail), drain a third, then
	// restore everything.
	inflight := func(name string) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.devices[name].inflight
	}
	waitInflight := func(name string, busy bool) {
		for deadline := time.Now().Add(5 * time.Second); (inflight(name) > 0) != busy; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Errorf("%s: inflight never became busy=%v", name, busy)
				return
			}
		}
	}
	var ops sync.WaitGroup
	ops.Add(1)
	go func() {
		defer ops.Done()
		<-halfway
		if err := s.Drain("garnet-a"); err != nil {
			t.Error(err)
		}
		// Arm the faults while garnet-c runs nothing, so every faulted
		// execution starts after its re-admission and ends (10 ms later)
		// after the Fail below.
		if err := s.Drain("garnet-c"); err != nil {
			t.Error(err)
		}
		waitInflight("garnet-c", false)
		faulty.QPU().InjectFaults(20)
		if err := s.Resume("garnet-c"); err != nil {
			t.Error(err)
		}
		waitInflight("garnet-c", true)
		if err := s.Fail("garnet-c"); err != nil {
			t.Error(err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := s.Drain("garnet-b"); err != nil {
			t.Error(err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := s.Resume("garnet-a"); err != nil {
			t.Error(err)
		}
		if err := s.Resume("garnet-b"); err != nil {
			t.Error(err)
		}
		faulty.QPU().InjectFaults(0)
		if err := s.Recover("garnet-c"); err != nil {
			t.Error(err)
		}
	}()

	wg.Wait()
	close(ids)
	ops.Wait()

	submitted := 0
	for id := range ids {
		j, err := s.Wait(id)
		if err != nil {
			t.Fatalf("wait %d: %v", id, err)
		}
		if j.Status != JobDone {
			t.Fatalf("job %d lost: %s on %q (%s), %d migrations",
				id, j.Status, j.Device, j.Error, j.Migrations)
		}
		if j.Result == nil || len(j.Result.Counts) == 0 {
			t.Fatalf("job %d done without results", id)
		}
		submitted++
	}
	if submitted != clients*perClient {
		t.Fatalf("submitted %d, want %d", submitted, clients*perClient)
	}

	m := s.Metrics()
	if m.Completed != uint64(submitted) {
		t.Fatalf("completed=%d, want %d", m.Completed, submitted)
	}
	if m.Failed != 0 || m.Cancelled != 0 {
		t.Fatalf("failed=%d cancelled=%d, want 0/0", m.Failed, m.Cancelled)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after settle", m.QueueDepth)
	}
	if m.IllegalTransitions != 0 {
		t.Errorf("IllegalTransitions = %d, want 0", m.IllegalTransitions)
	}
	// The chaos window must actually have exercised failover: garnet-c is
	// failed with 20 faults armed while its workers hold paced jobs.
	if m.Migrated == 0 {
		t.Fatal("stress run migrated no jobs — the failover path was not exercised")
	}
	total := uint64(0)
	for _, d := range m.Devices {
		total += d.Completed
		if d.State != DeviceActive {
			t.Fatalf("device %s ended %s, want active", d.Name, d.State)
		}
	}
	if total != uint64(submitted) {
		t.Fatalf("per-device completions sum to %d, want %d", total, submitted)
	}
	t.Logf("stress: %d jobs, %d migrations across %d devices",
		submitted, m.Migrated, len(m.Devices))
}
