package qrm

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/hpc"
	"repro/internal/qdmi"
	"repro/internal/telemetry"
)

func TestStartValidation(t *testing.T) {
	m := newManager(20)
	if err := m.Start(0); err == nil {
		t.Error("zero workers should fail")
	}
	if err := m.Start(2); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := m.Start(2); err == nil {
		t.Error("double start should fail")
	}
	if !m.Running() || m.Workers() != 2 {
		t.Errorf("running=%v workers=%d", m.Running(), m.Workers())
	}
}

func TestStepRejectedWhilePipelineRuns(t *testing.T) {
	m := newManager(21)
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if _, err := m.Step(); err == nil {
		t.Error("Step should be rejected while the pipeline runs")
	}
	if _, err := m.Drain(); err == nil {
		t.Error("Drain should be rejected while the pipeline runs")
	}
}

func TestPipelineCompletesJobs(t *testing.T) {
	m := newManager(22)
	if err := m.Start(4); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	ids := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := m.Submit(Request{Circuit: circuit.GHZ(3), Shots: 20, User: "pipe"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		j, err := m.WaitJob(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Fatalf("job %d = %s (%s)", id, j.Status, j.Error)
		}
		total := 0
		for _, c := range j.Counts {
			total += c
		}
		if total != 20 {
			t.Errorf("job %d counts = %d, want 20", id, total)
		}
	}
	snap := m.Metrics()
	if snap.Completed != 20 || snap.QueueDepth != 0 || snap.Inflight != 0 {
		t.Errorf("metrics = %+v", snap)
	}
}

func TestWaitJobWithoutWorkers(t *testing.T) {
	m := newManager(23)
	id, err := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitJob(id); err == nil {
		t.Error("WaitJob on a pending job without workers should fail fast")
	}
	if _, err := m.WaitJob(404); err == nil {
		t.Error("WaitJob on an unknown job should fail")
	}
	// After synchronous completion, WaitJob returns immediately.
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	j, err := m.WaitJob(id)
	if err != nil || j.Status != StatusDone {
		t.Errorf("terminal WaitJob = %+v, %v", j, err)
	}
}

func TestTranspileCacheHitsOnRepeatedCircuits(t *testing.T) {
	qpu := device.NewTwin20Q(24)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	if err := m.Start(2); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{Circuit: circuit.GHZ(5), Shots: 5, User: "vqe"}
	}
	_, ids, err := m.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if j, err := m.WaitJob(id); err != nil || j.Status != StatusDone {
			t.Fatalf("job %d: %+v, %v", id, j, err)
		}
	}
	snap := m.Metrics()
	if snap.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (single-flight across repeats)", snap.CacheMisses)
	}
	if snap.CacheHits != 9 {
		t.Errorf("cache hits = %d, want 9", snap.CacheHits)
	}

	// A calibration-epoch bump must invalidate the cache.
	qpu.AdvanceDrift(1)
	id, err := m.Submit(Request{Circuit: circuit.GHZ(5), Shots: 5, User: "vqe"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitJob(id); err != nil {
		t.Fatal(err)
	}
	if snap := m.Metrics(); snap.CacheMisses != 2 {
		t.Errorf("cache misses after drift = %d, want 2", snap.CacheMisses)
	}
}

func TestCacheKeyDistinguishesPlacement(t *testing.T) {
	m := newManager(25)
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	a, _ := m.Submit(Request{Circuit: circuit.GHZ(4), Shots: 5})
	b, _ := m.Submit(Request{Circuit: circuit.GHZ(4), Shots: 5, StaticPlacement: true})
	for _, id := range []int{a, b} {
		if _, err := m.WaitJob(id); err != nil {
			t.Fatal(err)
		}
	}
	if snap := m.Metrics(); snap.CacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (per-placement cache keys)", snap.CacheMisses)
	}
}

func TestPipelineWithQPUGate(t *testing.T) {
	sched, err := hpc.NewScheduler(4)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(26)
	m.SetGate(sched.QPUGate())
	if err := m.Start(8); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	ids := make([]int, 0, 16)
	for i := 0; i < 16; i++ {
		id, err := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 5})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		j, err := m.WaitJob(id)
		if err != nil || j.Status != StatusDone {
			t.Fatalf("gated job %d = %+v, %v", id, j, err)
		}
	}
	if sched.QPUGate().InUse() != 0 {
		t.Error("gate slots leaked")
	}
}

func TestPublishMetrics(t *testing.T) {
	m := newManager(27)
	store := telemetry.NewStore(0)
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	id, _ := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 5})
	if _, err := m.WaitJob(id); err != nil {
		t.Fatal(err)
	}
	m.PublishMetrics(store, 42)
	for _, sensor := range []string{"qrm_queue_depth", "qrm_inflight", "qrm_completed", "qrm_cache_hit_ratio", "qrm_e2e_p95_ms"} {
		if _, ok := store.Latest(sensor); !ok {
			t.Errorf("sensor %s not published", sensor)
		}
	}
}

// TestConcurrentDispatchStress is the -race workout: 16 workers, 200 jobs
// from concurrent submitters, with cancellations and an outage +
// requeue storm interleaved. Every job must land in a terminal state and
// the manager must quiesce.
func TestConcurrentDispatchStress(t *testing.T) {
	m := newManager(28)
	if err := m.Start(16); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	const nSubmitters = 4
	const jobsPerSubmitter = 50 // 200 total
	var mu sync.Mutex
	var ids []int

	var wg sync.WaitGroup
	for s := 0; s < nSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < jobsPerSubmitter; i++ {
				id, err := m.Submit(Request{
					Circuit:  circuit.GHZ(2 + rng.Intn(3)),
					Shots:    1 + rng.Intn(5),
					Priority: rng.Intn(3),
					User:     "stress",
				})
				if err != nil {
					continue // offline window: the interrupter owns this race
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}(s)
	}

	// Canceller: race cancellations against the workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 60; i++ {
			mu.Lock()
			n := len(ids)
			var id int
			if n > 0 {
				id = ids[rng.Intn(n)]
			}
			mu.Unlock()
			if id != 0 {
				_ = m.Cancel(id) // most will already be done; that's the point
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Interrupter: one outage + recovery + requeue mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		m.SetOnline(false)
		time.Sleep(2 * time.Millisecond)
		m.SetOnline(true)
		mu.Lock()
		interrupted := append([]int(nil), ids...)
		mu.Unlock()
		for _, id := range interrupted {
			if j, err := m.Job(id); err == nil && j.Status == StatusInterrupted {
				if nid, err := m.Submit(j.Request); err == nil {
					mu.Lock()
					ids = append(ids, nid)
					mu.Unlock()
				}
			}
		}
	}()

	wg.Wait()
	m.WaitIdle()

	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		j, err := m.Job(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if !terminalStatus(j.Status) {
			t.Errorf("job %d stuck in %s", id, j.Status)
		}
		if j.Status == StatusDone {
			total := 0
			for _, c := range j.Counts {
				total += c
			}
			if total != j.Request.Shots {
				t.Errorf("job %d counts = %d, want %d", id, total, j.Request.Shots)
			}
		}
	}
	snap := m.Metrics()
	if snap.QueueDepth != 0 || snap.Inflight != 0 {
		t.Errorf("not quiesced: %+v", snap)
	}
	if snap.Completed == 0 {
		t.Error("no jobs completed under stress")
	}
}

func TestConcurrentStopsDoNotPanic(t *testing.T) {
	m := newManager(30)
	if err := m.Start(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Submit(Request{Circuit: circuit.GHZ(3), Shots: 10})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Stop()
		}()
	}
	wg.Wait()
	if m.Running() {
		t.Error("manager still running after concurrent Stops")
	}
	// The pool restarts cleanly afterwards.
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	m.Stop()
}

func TestStopKeepsQueuedJobsAndRestarts(t *testing.T) {
	m := newManager(29)
	// Submit while stopped: stays queued.
	id, err := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitJob(id); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	m.Stop() // idempotent
	id2, err := m.Submit(Request{Circuit: circuit.GHZ(2), Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.PendingCount() != 1 {
		t.Errorf("pending = %d, want 1", m.PendingCount())
	}
	if err := m.Start(2); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if j, err := m.WaitJob(id2); err != nil || j.Status != StatusDone {
		t.Errorf("restarted pipeline job = %+v, %v", j, err)
	}
}

// TestEngineMetricsSurfaceBranchTree checks that shot-branching engine
// counters reach the pipeline metrics snapshot: a batch of identical noisy
// jobs rides the trajectory tree, and a batch of identical noiseless jobs
// hits the cached outcome distribution.
func TestEngineMetricsSurfaceBranchTree(t *testing.T) {
	noisy := NewManager(qdmi.NewDevice(device.New20Q(44), nil))
	if err := noisy.Start(2); err != nil {
		t.Fatal(err)
	}
	defer noisy.Stop()
	for i := 0; i < 6; i++ {
		if _, err := noisy.Submit(Request{Circuit: circuit.GHZ(4), Shots: 100, User: "tree"}); err != nil {
			t.Fatal(err)
		}
	}
	noisy.WaitIdle()
	snap := noisy.Metrics()
	if snap.SimBranchTreeJobs != 6 || snap.SimBranchTreeShots != 600 {
		t.Errorf("branch-tree counters = %d jobs / %d shots, want 6 / 600 (%+v)",
			snap.SimBranchTreeJobs, snap.SimBranchTreeShots, snap)
	}
	if r := snap.BranchLeavesPerShot(); r <= 0 || r >= 1 {
		t.Errorf("leaves/shot = %.3f, want in (0, 1): the tree should amortize shots", r)
	}
	if _, ok := snap.Gauges()["qrm_sim_leaves_per_shot"]; !ok {
		t.Error("leaves-per-shot gauge missing from the telemetry set")
	}

	twin := newManager(45)
	if err := twin.Start(2); err != nil {
		t.Fatal(err)
	}
	defer twin.Stop()
	for i := 0; i < 5; i++ {
		if _, err := twin.Submit(Request{Circuit: circuit.GHZ(4), Shots: 100, User: "dist"}); err != nil {
			t.Fatal(err)
		}
	}
	twin.WaitIdle()
	snap = twin.Metrics()
	if snap.SimDistCacheHits != 4 {
		t.Errorf("dist-cache hits = %d, want 4 (first job simulates, four sample)", snap.SimDistCacheHits)
	}
}
