package fleet

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// TestHybridLoopJobAllocs gates what one iteration of a hybrid loop
// allocates below the HTTP handler: Submit -> WaitContext of a fresh-angle
// 5-qubit depth-4 rx/cz ansatz x 100 shots on the daemon's two noisy
// devices, every job a miss in the epoch's compile map. Admission, the claim,
// transpile, engine compile, the branch tree and the job's events are all
// inside; none of them may cost per gate.
func TestHybridLoopJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race; CI runs this gate as its own non-race step")
	}
	const runs = 50
	// Warm the pools on the one P AllocsPerRun measures on: a pool's objects
	// are per P, and a GOMAXPROCS change drops them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job := hybridLoop(t, runs)
	allocs := testing.AllocsPerRun(runs, job)
	t.Logf("hybrid-loop job through the fleet: %.0f allocs", allocs)
	if allocs > 30 {
		t.Errorf("hybrid-loop job through the fleet: %.0f allocs, want <= 30 (measured 26, the pools warmed on the one P it measures on, trace spans as value handles, the engine handed its span and the worker's profile label set once, and a compile-map entry holding its program and its own completion; 41 with a heap handle per span, 3 context values, per-job pprof labels and a separate completion channel and engine program per entry; 40 before the compile map copied its key, with the transpiler's passes in the claiming worker's scratch and trace attributes stamped without a copy; 83 with a circuit per pass and a concatenated string per attribute, with the device stage run by the claiming worker; 84 behind qrm.Manager.Run; 87 with a per-device queue behind a handle and a monitor goroutine per job, 100 with a second compile cache and a calibration clone per miss, 407 before the miss path allocated per circuit)", allocs)
	}
}

// TestHybridLoopJobBytes gates the bytes of the same loop: since the heap
// goal is twice a small live heap, a hybrid loop's GC cycles follow what each
// job allocates.
func TestHybridLoopJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own; CI runs this gate as its own non-race step")
	}
	const runs = 200
	job := hybridLoop(t, runs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun measures
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("hybrid-loop job through the fleet: %.1f KB", bytes/1024)
	if bytes > 20<<10 {
		t.Errorf("hybrid-loop job through the fleet: %.1f KB, want <= 20 KB (measured 15.5; 16.0 with a heap handle per span, 3 context values, per-job pprof labels and a separate completion channel and engine program per compile-map entry; 32.9 KB with a fresh circuit per transpile pass, a compact circuit per compile, 200-B trajectory steps and a 24-span trace slab)", bytes/1024)
	}
}

// hybridLoop returns one iteration of a hybrid loop on a fresh hybridFleet,
// run once to warm the pools: Submit -> WaitContext of the next of runs+1
// prebuilt fresh-angle ansatz circuits (the caller's decode is not the
// fleet's cost).
func hybridLoop(t *testing.T, runs int) func() {
	s := hybridFleet(t)
	rng := rand.New(rand.NewSource(5))
	circs := make([]*circuit.Circuit, runs+2)
	for i := range circs {
		circs[i] = ansatz(rng)
	}
	next := 0
	job := func() {
		id, err := s.Submit(qrm.Request{Circuit: circs[next], Shots: 100, User: "vqe"}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		next++
		if rec, err := s.WaitContext(context.Background(), id); err != nil || rec.Status != JobDone {
			t.Fatalf("job %d: %v, record %+v", id, err, rec)
		}
	}
	job()
	return job
}

// hybridFleet is the daemon's two noisy devices, two workers each.
func hybridFleet(t *testing.T) *Scheduler {
	t.Helper()
	s := New(PolicyBestFidelity, nil)
	t.Cleanup(s.Stop)
	for _, cfg := range []device.Config{
		{Name: "garnet-20", Rows: 4, Cols: 5, Seed: 1},
		{Name: "sibling-01-4x4", Rows: 4, Cols: 4, Seed: 101},
	} {
		qpu, err := device.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDevice(cfg.Name, qdmi.NewDevice(qpu, nil), 2); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// ansatz is a hybrid-loop iteration's circuit: a fresh-angle 5-qubit
// depth-4 rx/cz ansatz.
func ansatz(rng *rand.Rand) *circuit.Circuit {
	c := &circuit.Circuit{NumQubits: 5}
	for l := 0; l < 4; l++ {
		for q := 0; q < 5; q++ {
			c.Gates = append(c.Gates, circuit.Gate{Name: "rx", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 5; q += 2 {
			c.Gates = append(c.Gates, circuit.Gate{Name: "cz", Qubits: []int{q, q + 1}})
		}
	}
	return c
}

// TestWaitContextOfSealedJobAllocs gates reading a sealed job in process:
// WaitContext on a hybrid-loop job sealed before the call, and Scheduler.Job
// of one, copy its stored record out of the arena and decode it into a Job
// field by field.
func TestWaitContextOfSealedJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own; CI runs this gate as its own non-race step")
	}
	s := hybridFleet(t)
	id, err := s.Submit(qrm.Request{Circuit: ansatz(rand.New(rand.NewSource(5))), Shots: 100, User: "vqe"}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.WaitSettled()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		read func() (*Job, error)
	}{
		{"WaitContext", func() (*Job, error) { return s.WaitContext(ctx, id) }},
		{"Job", func() (*Job, error) { return s.Job(id) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if j, err := tc.read(); err != nil || j.Status != JobDone || len(j.Result.Counts) == 0 || len(j.Request.Circuit.Gates) == 0 {
				t.Fatalf("%s of sealed job %d: %v, record %+v", tc.name, id, err, j)
			}
		})
		t.Logf("%s of a sealed hybrid-loop job: %.0f allocs", tc.name, allocs)
		if allocs > 15 {
			t.Errorf("%s of a sealed hybrid-loop job: %.0f allocs, want <= 15 (measured 13 decoding the stored record by hand: the copy out of the arena, the job, its strings, its result, layout and counts, and its circuit; 87 through encoding/json's reflection decode of the record's JSON)", tc.name, allocs)
		}
	}
}
