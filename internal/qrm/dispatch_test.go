package qrm_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

func TestStartValidation(t *testing.T) {
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	defer f.Stop()
	dev := qdmi.NewDevice(device.NewTwin20Q(20), nil)
	if err := f.AddDevice("dev", dev, 0); err == nil {
		t.Error("zero workers should fail")
	}
	if err := f.AddDevice("dev", dev, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDevice("dev", dev, 2); err == nil {
		t.Error("double start should fail")
	}
	if w := pipeline(f).Workers; w != 2 {
		t.Errorf("workers = %d, want 2", w)
	}
}

func TestPipelineCompletesJobs(t *testing.T) {
	f := twinFleet(t, 22, 4)
	ids := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		ids = append(ids, submit(t, f, qrm.Request{Circuit: circuit.GHZ(3), Shots: 20, User: "pipe"}))
	}
	for _, id := range ids {
		j := await(t, f, id)
		if j.Status != fleet.JobDone {
			t.Fatalf("job %d = %s (%s)", id, j.Status, j.Error)
		}
		total := 0
		for _, c := range j.Result.Counts {
			total += c
		}
		if total != 20 {
			t.Errorf("job %d counts = %d, want 20", id, total)
		}
	}
	if m := f.Metrics(); m.QueueDepth != 0 || m.Devices[0].QRM.Completed != 20 || m.Devices[0].QRM.Inflight != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestTranspileCacheHitsOnRepeatedCircuits(t *testing.T) {
	qpu := device.NewTwin20Q(24)
	f := newFleet(t, qpu, 2)
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = submit(t, f, qrm.Request{Circuit: circuit.GHZ(5), Shots: 5, User: "vqe"})
	}
	for _, id := range ids {
		if j := await(t, f, id); j.Status != fleet.JobDone {
			t.Fatalf("job %d: %+v", id, j)
		}
	}
	snap := pipeline(f)
	if snap.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (single-flight across repeats)", snap.CacheMisses)
	}
	if snap.CacheHits != 9 {
		t.Errorf("cache hits = %d, want 9", snap.CacheHits)
	}

	// A calibration-epoch bump must invalidate the cache.
	qpu.AdvanceDrift(1)
	await(t, f, submit(t, f, qrm.Request{Circuit: circuit.GHZ(5), Shots: 5, User: "vqe"}))
	if snap := pipeline(f); snap.CacheMisses != 2 {
		t.Errorf("cache misses after drift = %d, want 2", snap.CacheMisses)
	}
}

func TestCacheKeyDistinguishesPlacement(t *testing.T) {
	f := twinFleet(t, 25, 1)
	a := submit(t, f, qrm.Request{Circuit: circuit.GHZ(4), Shots: 5})
	b := submit(t, f, qrm.Request{Circuit: circuit.GHZ(4), Shots: 5, StaticPlacement: true})
	await(t, f, a)
	await(t, f, b)
	if snap := pipeline(f); snap.CacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (per-placement cache keys)", snap.CacheMisses)
	}
}

// TestCollectPipelineGauges: the device's pipeline health reaches the
// telemetry collector through the fleet's gauges, beside the queue depth.
func TestCollectPipelineGauges(t *testing.T) {
	f := twinFleet(t, 27, 1)
	await(t, f, submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 5}))
	g := f.Collect()
	p := "fleet_" + f.Devices()[0] + "_"
	for _, sensor := range []string{"fleet_queue_depth", p + "inflight", p + "completed", p + "cache_hit_ratio", p + "e2e_p95_ms"} {
		if _, ok := g[sensor]; !ok {
			t.Errorf("sensor %s not collected", sensor)
		}
	}
}

// TestConcurrentDispatchStress is the -race workout: 16 workers, 200 jobs
// from concurrent submitters, with cancellations and an outage + recovery
// interleaved. Every job must land in a terminal state and the device must
// quiesce.
func TestConcurrentDispatchStress(t *testing.T) {
	f := twinFleet(t, 28, 16)
	name := f.Devices()[0]

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
				id, err := f.Submit(qrm.Request{
					Circuit:  circuit.GHZ(2 + rng.Intn(3)),
					Shots:    1 + rng.Intn(5),
					Priority: rng.Intn(3),
					User:     "stress",
				}, fleet.SubmitOptions{})
				if err != nil {
					t.Error(err)
					return
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
			id := 0
			if n > 0 {
				id = ids[rng.Intn(n)]
			}
			mu.Unlock()
			if n > 0 {
				_ = f.Cancel(id) // most will already be done; that's the point
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Outage and recovery mid-storm: the device stops claiming, then
	// resumes; nothing queued may be lost.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		_ = f.Fail(name)
		time.Sleep(2 * time.Millisecond)
		_ = f.Recover(name)
	}()

	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		j := await(t, f, id)
		if !j.Status.Terminal() {
			t.Errorf("job %d stuck in %s", id, j.Status)
		}
		if j.Status == fleet.JobDone {
			total := 0
			for _, c := range j.Result.Counts {
				total += c
			}
			if total != j.Request.Shots {
				t.Errorf("job %d counts = %d, want %d", id, total, j.Request.Shots)
			}
		}
	}
	// A worker settles its job before it drops its in-flight count; the
	// pool is quiet once Stop has joined it.
	f.Stop()
	m := f.Metrics()
	if m.QueueDepth != 0 || m.Devices[0].Inflight != 0 {
		t.Errorf("not quiesced: %+v", m)
	}
	if m.Completed == 0 {
		t.Error("no jobs completed under stress")
	}
}

func TestConcurrentStopsDoNotPanic(t *testing.T) {
	f := twinFleet(t, 30, 4)
	var ids []int
	for i := 0; i < 20; i++ {
		ids = append(ids, submit(t, f, qrm.Request{Circuit: circuit.GHZ(3), Shots: 10}))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Stop()
		}()
	}
	wg.Wait()
	// Every job settled — run to the end or failed in the queue — and the
	// stopped fleet refuses new work.
	for _, id := range ids {
		if j := await(t, f, id); !j.Status.Terminal() {
			t.Errorf("job %d = %s after concurrent Stops", id, j.Status)
		}
	}
	if _, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5}, fleet.SubmitOptions{}); err == nil {
		t.Error("submit after Stop should fail")
	}
}

// TestEngineMetricsSurfaceBranchTree checks that shot-branching engine
// counters reach the pipeline metrics snapshot: a batch of identical noisy
// jobs rides the trajectory tree, and so does a batch of noiseless jobs,
// one leaf each.
func TestEngineMetricsSurfaceBranchTree(t *testing.T) {
	noisy := newFleet(t, device.New20Q(44), 2)
	var ids []int
	for i := 0; i < 6; i++ {
		ids = append(ids, submit(t, noisy, qrm.Request{Circuit: circuit.GHZ(4), Shots: 100, User: "tree"}))
	}
	for _, id := range ids {
		await(t, noisy, id)
	}
	snap := pipeline(noisy)
	if snap.SimBranchTreeJobs != 6 || snap.SimBranchTreeShots != 600 {
		t.Errorf("branch-tree counters = %d jobs / %d shots, want 6 / 600 (%+v)",
			snap.SimBranchTreeJobs, snap.SimBranchTreeShots, snap)
	}
	if r := float64(snap.SimBranchLeaves) / float64(snap.SimBranchTreeShots); r <= 0 || r >= 1 {
		t.Errorf("leaves/shot = %.3f, want in (0, 1): the tree should amortize shots", r)
	}

	twin := twinFleet(t, 45, 2)
	ids = ids[:0]
	for i := 0; i < 5; i++ {
		ids = append(ids, submit(t, twin, qrm.Request{Circuit: circuit.GHZ(4), Shots: 100, User: "twin"}))
	}
	for _, id := range ids {
		await(t, twin, id)
	}
	if snap := pipeline(twin); snap.SimBranchTreeJobs != 5 || snap.SimBranchTreeShots != 500 || snap.SimBranchLeaves != 5 {
		t.Errorf("twin branch-tree counters = %d jobs / %d shots / %d leaves, want 5 / 500 / 5 (%+v)",
			snap.SimBranchTreeJobs, snap.SimBranchTreeShots, snap.SimBranchLeaves, snap)
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	f := twinFleet(t, 41, 1)
	release := hold(t, f)
	late := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: 1})
	ok := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 5})
	time.Sleep(10 * time.Millisecond) // let the 1 ms dispatch budget lapse
	release()
	if j := await(t, f, late); j.Status != fleet.JobFailed || j.Error != qrm.ErrDeadlineMsg {
		t.Errorf("expired job = %s (%q), want failed with deadline message", j.Status, j.Error)
	}
	if j := await(t, f, ok); j.Status != fleet.JobDone {
		t.Errorf("deadline-free job = %s, want done", j.Status)
	}
	if snap := pipeline(f); snap.Expired != 1 || snap.Failed != 1 {
		t.Errorf("expired=%d failed=%d, want 1/1", snap.Expired, snap.Failed)
	}
}

func TestCancelInFlight(t *testing.T) {
	qpu := device.NewTwin20Q(42)
	qpu.SetExecLatency(50 * time.Millisecond)
	f := newFleet(t, qpu, 1)
	id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(3), Shots: 10})
	// Wait for the worker to claim the job (it leaves the queue).
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		j, _ := f.Job(id)
		if j.Status == fleet.JobRouted || j.Status == fleet.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never left the queue (status %s)", j.Status)
		}
	}
	if err := f.Cancel(id); err != nil {
		t.Fatalf("in-flight cancel: %v", err)
	}
	j := await(t, f, id)
	if j.Status != fleet.JobCancelled {
		t.Errorf("status = %s, want cancelled (in-flight cancel must win)", j.Status)
	}
	if j.Result != nil && len(j.Result.Counts) != 0 {
		t.Error("cancelled job must not carry results")
	}
	if err := f.Cancel(id); err == nil {
		t.Error("cancel of a terminal job should error")
	}
}

func TestHandleWaitHonoursContext(t *testing.T) {
	qpu := device.NewTwin20Q(43)
	qpu.SetExecLatency(50 * time.Millisecond)
	f := newFleet(t, qpu, 1)
	id := submit(t, f, qrm.Request{Circuit: circuit.GHZ(2), Shots: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := f.WaitContext(ctx, id); err != context.DeadlineExceeded {
		t.Errorf("Wait = %v, want context.DeadlineExceeded", err)
	}
	// The job itself is untouched and completes normally.
	if j := await(t, f, id); j.Status != fleet.JobDone {
		t.Errorf("job after abandoned wait = %+v", j)
	}
}
