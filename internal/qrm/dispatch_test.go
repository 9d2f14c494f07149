package qrm

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
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
	if w := m.Metrics().Workers; w != 2 {
		t.Errorf("workers = %d, want 2", w)
	}
}

func TestPipelineCompletesJobs(t *testing.T) {
	m := newManager(22)
	start(t, m, 4)
	hs := make([]Handle, 0, 20)
	for i := 0; i < 20; i++ {
		hs = append(hs, submit(t, m, Request{Circuit: circuit.GHZ(3), Shots: 20, User: "pipe"}))
	}
	for _, h := range hs {
		j := await(t, h)
		if j.Status != StatusDone {
			t.Fatalf("job %d = %s (%s)", j.ID, j.Status, j.Error)
		}
		total := 0
		for _, c := range j.Counts {
			total += c
		}
		if total != 20 {
			t.Errorf("job %d counts = %d, want 20", j.ID, total)
		}
	}
	snap := m.Metrics()
	if snap.Completed != 20 || snap.QueueDepth != 0 || snap.Inflight != 0 {
		t.Errorf("metrics = %+v", snap)
	}
}

func TestWaitJobWithoutWorkers(t *testing.T) {
	m := newManager(23)
	h := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5})
	if _, err := h.Wait(context.Background()); err == nil {
		t.Error("Wait on a pending job without workers should fail fast")
	}
	// Once the job is terminal, Wait returns its record with or without a pool.
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	await(t, h)
	m.Stop()
	j, err := h.Wait(context.Background())
	if err != nil || j.Status != StatusDone {
		t.Errorf("terminal Wait = %+v, %v", j, err)
	}
}

func TestTranspileCacheHitsOnRepeatedCircuits(t *testing.T) {
	qpu := device.NewTwin20Q(24)
	m := NewManager(qdmi.NewDevice(qpu, nil))
	start(t, m, 2)
	hs := make([]Handle, 10)
	for i := range hs {
		hs[i] = submit(t, m, Request{Circuit: circuit.GHZ(5), Shots: 5, User: "vqe"})
	}
	for _, h := range hs {
		if j := await(t, h); j.Status != StatusDone {
			t.Fatalf("job %d: %+v", j.ID, j)
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
	await(t, submit(t, m, Request{Circuit: circuit.GHZ(5), Shots: 5, User: "vqe"}))
	if snap := m.Metrics(); snap.CacheMisses != 2 {
		t.Errorf("cache misses after drift = %d, want 2", snap.CacheMisses)
	}
}

func TestCacheKeyDistinguishesPlacement(t *testing.T) {
	m := newManager(25)
	start(t, m, 1)
	a := submit(t, m, Request{Circuit: circuit.GHZ(4), Shots: 5})
	b := submit(t, m, Request{Circuit: circuit.GHZ(4), Shots: 5, StaticPlacement: true})
	await(t, a)
	await(t, b)
	if snap := m.Metrics(); snap.CacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (per-placement cache keys)", snap.CacheMisses)
	}
}

func TestPublishMetrics(t *testing.T) {
	m := newManager(27)
	store := telemetry.NewStore(0)
	start(t, m, 1)
	await(t, submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5}))
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
	start(t, m, 16)

	const nSubmitters = 4
	const jobsPerSubmitter = 50 // 200 total
	var mu sync.Mutex
	var hs []Handle

	var wg sync.WaitGroup
	for s := 0; s < nSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < jobsPerSubmitter; i++ {
				h, err := m.Submit(Request{
					Circuit:  circuit.GHZ(2 + rng.Intn(3)),
					Shots:    1 + rng.Intn(5),
					Priority: rng.Intn(3),
					User:     "stress",
				}, nil)
				if err != nil {
					continue // offline window: the interrupter owns this race
				}
				mu.Lock()
				hs = append(hs, h)
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
			n := len(hs)
			var h Handle
			if n > 0 {
				h = hs[rng.Intn(n)]
			}
			mu.Unlock()
			if n > 0 {
				_ = h.Cancel() // most will already be done; that's the point
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
		interrupted := append([]Handle(nil), hs...)
		mu.Unlock()
		for _, h := range interrupted {
			if j := h.Record(); j.Status == StatusInterrupted {
				if nh, err := m.Submit(j.Request, nil); err == nil {
					mu.Lock()
					hs = append(hs, nh)
					mu.Unlock()
				}
			}
		}
	}()

	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, h := range hs {
		j := await(t, h)
		if !terminalStatus(j.Status) {
			t.Errorf("job %d stuck in %s", j.ID, j.Status)
		}
		if j.Status == StatusDone {
			total := 0
			for _, c := range j.Counts {
				total += c
			}
			if total != j.Request.Shots {
				t.Errorf("job %d counts = %d, want %d", j.ID, total, j.Request.Shots)
			}
		}
	}
	// A worker closes Done under the lock and drops its in-flight count
	// under the next one; the pool is quiet once Stop has joined it.
	m.Stop()
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
		submit(t, m, Request{Circuit: circuit.GHZ(3), Shots: 10})
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
	if w := m.Metrics().Workers; w != 0 {
		t.Errorf("workers = %d after concurrent Stops, want 0", w)
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
	h := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5})
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	await(t, h)
	m.Stop()
	m.Stop() // idempotent
	h2 := submit(t, m, Request{Circuit: circuit.GHZ(2), Shots: 5})
	if queued, _ := m.Load(); queued != 1 {
		t.Errorf("pending = %d, want 1", queued)
	}
	start(t, m, 2)
	if j := await(t, h2); j.Status != StatusDone {
		t.Errorf("restarted pipeline job = %+v", j)
	}
}

// TestEngineMetricsSurfaceBranchTree checks that shot-branching engine
// counters reach the pipeline metrics snapshot: a batch of identical noisy
// jobs rides the trajectory tree, and a batch of identical noiseless jobs
// hits the cached outcome distribution.
func TestEngineMetricsSurfaceBranchTree(t *testing.T) {
	noisy := NewManager(qdmi.NewDevice(device.New20Q(44), nil))
	start(t, noisy, 2)
	var hs []Handle
	for i := 0; i < 6; i++ {
		hs = append(hs, submit(t, noisy, Request{Circuit: circuit.GHZ(4), Shots: 100, User: "tree"}))
	}
	for _, h := range hs {
		await(t, h)
	}
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
	start(t, twin, 2)
	hs = hs[:0]
	for i := 0; i < 5; i++ {
		hs = append(hs, submit(t, twin, Request{Circuit: circuit.GHZ(4), Shots: 100, User: "dist"}))
	}
	for _, h := range hs {
		await(t, h)
	}
	snap = twin.Metrics()
	if snap.SimDistCacheHits != 4 {
		t.Errorf("dist-cache hits = %d, want 4 (first job simulates, four sample)", snap.SimDistCacheHits)
	}
}
