package scenario

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// TestCountsArePureInJobID is the determinism gate of the per-job random
// stream: a job's counts are a function of its request, the calibration
// epoch and its job ID — not of which jobs the device ran before it, in
// what order, whether a helper goroutine ran part of it, or how many times
// the job itself was executed.
func TestCountsArePureInJobID(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		// The same eight jobs (IDs 1-8, noisy device, 2 workers) claimed in
		// submission order, then in reverse with a fleet job and an
		// in-process job between every two of them.
		ascending := runOrdered(t, false)
		reversed := runOrdered(t, true)
		for id, want := range ascending {
			if got := reversed[id]; !reflect.DeepEqual(got, want) {
				t.Errorf("job %d: counts %v claimed in reverse among other jobs, %v in order", id, got, want)
			}
		}
	})

	t.Run("sibling", func(t *testing.T) {
		// A 12-qubit job, wide enough to take a helper goroutine, run once
		// beside a sibling job too small for one and once beside a wider
		// job claimed just before it, which mostly takes the process's
		// helper slot first where GOMAXPROCS allows only one: the job's
		// forks run on a helper in the first run and, mostly, inline in
		// the second.
		idle := runBesideSibling(t, false)
		busy := runBesideSibling(t, true)
		if !reflect.DeepEqual(idle, busy) {
			t.Errorf("12-qubit job: counts %v beside a busy sibling worker, %v beside an idle one", busy, idle)
		}
	})

	t.Run("crash", func(t *testing.T) {
		// Job 4 is on the device when node 0 is killed; the reboot replays
		// the WAL and runs it again, as the first job of a fresh device.
		undisturbed := runCrashNode(t, false)
		crashed := runCrashNode(t, true)
		for id, want := range undisturbed {
			if got := crashed[id]; !reflect.DeepEqual(got, want) {
				t.Errorf("job %d: counts %v across a kill -9 and reboot, %v undisturbed", id, got, want)
			}
		}
	})
}

// pureCircuit is job i's circuit: i+3 qubits in uniform superposition with
// a CZ chain, so a job's histogram spreads over many outcomes and two
// streams are all but certain to tell apart.
func pureCircuit(i int) *circuit.Circuit {
	n := 3 + i%4
	c := circuit.New(n, "pure")
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q+1 < n; q++ {
		c.CZ(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.RY(q, math.Pi/3)
	}
	return c
}

// runOrdered runs jobs 1-8 on a fresh noisy one-device fleet and returns
// their counts by ID. reverse gives job i priority i, so the queue hands
// them out newest first, and queues a filler job behind each (same
// priority, later ID) while another goroutine runs jobs on the QPU
// in-process.
func runOrdered(t *testing.T, reverse bool) map[int]map[int]int {
	t.Helper()
	f := fleet.New(fleet.PolicyLeastLoaded, nil)
	defer f.Stop()
	qpu := device.New20Q(5)
	if err := f.AddDevice("dev", qdmi.NewDevice(qpu, nil), 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain("dev"); err != nil {
		t.Fatal(err)
	}
	const jobs = 8
	submit := func(c *circuit.Circuit, shots, prio int) int {
		id, err := f.Submit(qrm.Request{Circuit: c, Shots: shots, User: "u", Priority: prio}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ids := make([]int, jobs)
	for i := range ids {
		prio := 0
		if reverse {
			prio = i
		}
		ids[i] = submit(pureCircuit(i), 200, prio)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	if reverse {
		for i := 0; i < jobs; i++ {
			submit(circuit.GHZ(2), 50, i)
		}
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := qpu.Execute(device.NativeGHZLine(3), 20); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	} else {
		close(done)
	}
	if err := f.Resume("dev"); err != nil {
		t.Fatal(err)
	}
	counts := waitCounts(t, f, ids)
	close(stop)
	<-done
	return counts
}

// wideCircuit is n qubits in layers of random rotations, each followed by
// CZ brickwork along the line: the wide-circuit benchmark's job shape.
func wideCircuit(n, layers int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n, "wide")
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RZ(q, 2*math.Pi*rng.Float64())
			c.RY(q, 2*math.Pi*rng.Float64())
		}
		for q := l % 2; q+1 < n; q += 2 {
			c.CZ(q, q+1)
		}
	}
	return c
}

// runBesideSibling runs a 12-qubit depth-4 job, ID 2, on a fresh noisy
// two-worker device and returns its counts. Job 1, claimed by the other
// worker a moment before, is a 2-qubit GHZ job, or with busy a 14-qubit
// depth-6 400-shot job.
func runBesideSibling(t *testing.T, busy bool) map[int]int {
	t.Helper()
	f := fleet.New(fleet.PolicyLeastLoaded, nil)
	defer f.Stop()
	qpu := device.New20Q(5)
	if err := f.AddDevice("dev", qdmi.NewDevice(qpu, nil), 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain("dev"); err != nil {
		t.Fatal(err)
	}
	sibling := qrm.Request{Circuit: circuit.GHZ(2), Shots: 10, User: "u"}
	if busy {
		sibling = qrm.Request{Circuit: wideCircuit(14, 6, 8), Shots: 400, User: "u"}
	}
	var ids [2]int
	for i, req := range []qrm.Request{sibling, {Circuit: wideCircuit(12, 4, 7), Shots: 50, User: "u"}} {
		id, err := f.Submit(req, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := f.Resume("dev"); err != nil {
		t.Fatal(err)
	}
	return waitCounts(t, f, ids[:])[ids[1]]
}

// runCrashNode runs jobs 1-4 on a durable one-device node. With crash,
// job 4 is held on the device by a long control-electronics latency and
// the node is killed under it; the rebooted node must have re-queued and
// re-run it.
func runCrashNode(t *testing.T, crash bool) map[int]map[int]int {
	t.Helper()
	spec := smokeSpec(t, "node-crash-recovery")
	spec.Fleet.Devices, spec.Fleet.Workers = 1, 1
	spec.fill()
	spec.Hooks = Hooks{Setup: func(e *Env) {
		if err := e.EnableDurability(); err != nil {
			t.Fatal(err)
		}
	}}
	e, err := newEnv(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	const jobs = 4
	submit := func(i int) int {
		id, err := e.Fleet.Submit(qrm.Request{Circuit: pureCircuit(i), Shots: 200, User: "u"}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ids := make([]int, jobs)
	for i := 0; i < jobs-1; i++ {
		ids[i] = submit(i)
		waitCounts(t, e.Fleet, ids[i:i+1])
	}
	if crash {
		e.QPU(0).SetExecLatency(time.Second)
	}
	ids[jobs-1] = submit(jobs - 1)
	if crash {
		deadline := time.Now().Add(10 * time.Second)
		for {
			j, err := e.Fleet.Job(ids[jobs-1])
			if err != nil {
				t.Fatal(err)
			}
			if j.Status == fleet.JobRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never reached the device: %s", j.ID, j.Status)
			}
			time.Sleep(time.Millisecond)
		}
		if err := e.Crash(); err != nil {
			t.Fatal(err)
		}
		if r := e.Fleet.Restored(); r.Requeued < 1 {
			t.Fatalf("reboot restored %+v: the in-flight job was not re-queued", r)
		}
	}
	return waitCounts(t, e.Fleet, ids)
}

// waitCounts waits for each job and returns its counts by ID.
func waitCounts(t *testing.T, f *fleet.Scheduler, ids []int) map[int]map[int]int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make(map[int]map[int]int, len(ids))
	for _, id := range ids {
		j, err := f.WaitContext(ctx, id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if j.Status != fleet.JobDone || j.Result == nil {
			t.Fatalf("job %d: %s %q", id, j.Status, j.Error)
		}
		out[id] = map[int]int(j.Result.Counts)
	}
	return out
}
