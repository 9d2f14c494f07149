package fleet

import (
	"context"
	"math"
	"math/rand"
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
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
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
	rng := rand.New(rand.NewSource(5))
	ansatz := func() *circuit.Circuit {
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
	const runs = 50
	circs := make([]*circuit.Circuit, runs+2) // built ahead: the caller's decode is not the fleet's cost
	for i := range circs {
		circs[i] = ansatz()
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
	job() // warm the pools
	allocs := testing.AllocsPerRun(runs, job)
	if allocs > 88 {
		t.Errorf("hybrid-loop job through the fleet: %.0f allocs, want <= 88 (measured 83, with the device stage run by the claiming worker; 84 behind qrm.Manager.Run; 87 with a per-device queue behind a handle and a monitor goroutine per job, 100 with a second compile cache and a calibration clone per miss, 407 before the miss path allocated per circuit)", allocs)
	}
}
