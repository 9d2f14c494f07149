// VQE example: the hydrogen-molecule ground state via the tightly-coupled
// accelerator path — the hybrid quantum-classical loop §2.6 names as the
// reason the HPC access mode exists. The classical optimizer (SPSA) and the
// quantum expectation evaluation alternate hundreds of times, which is why
// queue-per-job latency would be prohibitive and the in-HPC client matters.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/hybrid"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

func main() {
	h2 := hybrid.H2Molecule()
	exact := hybrid.H2GroundStateEnergy()
	fmt.Printf("Target: H2 molecule, exact ground energy %.4f Hartree\n", exact)
	fmt.Printf("Hamiltonian: %s\n\n", h2)

	ansatz, numParams := hybrid.HardwareEfficientAnsatz(2, 1)
	initial := make([]float64, numParams)
	for i := range initial {
		initial[i] = 0.1 * float64(i+1)
	}

	// Stage 1 (onboarding practice, §4): run against the digital twin.
	twin := oneDevice(device.NewTwin20Q(11), 1)
	defer twin.Stop()
	twinRunner := fleetRunner{f: twin, user: "vqe-twin"}
	vqeTwin := &hybrid.VQE{
		Hamiltonian: h2, Ansatz: ansatz, Runner: twinRunner,
		Shots: 4000, Optimizer: hybrid.DefaultSPSA(250, 5),
	}
	resTwin, err := vqeTwin.Run(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Digital twin:  E = %.4f Hartree (error %+.4f), %d energy evaluations\n",
		resTwin.Value, resTwin.Value-exact, resTwin.Evaluations)

	// Stage 2: the same loop against the noisy 20-qubit QPU, through the
	// concurrent dispatch pipeline. Every energy evaluation is JIT-compiled
	// against the live calibration; the epoch's compile map collapses
	// repeated measurement circuits to one compilation per calibration epoch.
	qpu := oneDevice(device.New20Q(11), 2)
	defer qpu.Stop()
	qpuRunner := fleetRunner{f: qpu, user: "vqe-qpu"}
	vqeQPU := &hybrid.VQE{
		Hamiltonian: h2, Ansatz: ansatz, Runner: qpuRunner,
		Shots: 2000, Optimizer: hybrid.DefaultSPSA(120, 5),
	}
	resQPU, err := vqeQPU.Run(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Noisy QPU:     E = %.4f Hartree (error %+.4f), %d energy evaluations\n",
		resQPU.Value, resQPU.Value-exact, resQPU.Evaluations)

	// Final energy: re-measure the optimized circuit several times to
	// average shot noise. These repeats are identical circuits, so from the
	// second repetition on the dispatch pipeline serves the compilation
	// from the calibration epoch's compile map.
	prep, err := ansatz(resQPU.Params)
	if err != nil {
		log.Fatal(err)
	}
	const finalReps = 10
	sum := 0.0
	for i := 0; i < finalReps; i++ {
		e, err := hybrid.MeasureExpectation(h2, prep, qpuRunner, 2000)
		if err != nil {
			log.Fatal(err)
		}
		sum += e
	}
	fmt.Printf("Final energy (averaged over %d repeats): E = %.4f Hartree (error %+.4f)\n",
		finalReps, sum/finalReps, sum/finalReps-exact)

	metrics := qpu.Metrics().Devices[0].QRM
	fmt.Printf("\nQRM executed %d quantum jobs for the noisy run (%d workers).\n",
		metrics.Completed, metrics.Workers)
	fmt.Printf("Transpile cache: %d hits / %d misses; e2e p95 %.2f ms.\n",
		metrics.CacheHits, metrics.CacheMisses, metrics.E2EMs.Quantile(0.95))
	fmt.Println("Chemical-accuracy work would add error mitigation — the §4 training topic.")
}

// oneDevice is the QRM of one QPU: a one-device fleet with its worker pool.
func oneDevice(qpu *device.QPU, workers int) *fleet.Scheduler {
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), workers); err != nil {
		log.Fatal(err)
	}
	return f
}

// fleetRunner adapts the scheduler to the hybrid.Runner interface: each
// expectation measurement becomes one quantum job on the stack.
type fleetRunner struct {
	f    *fleet.Scheduler
	user string
}

func (r fleetRunner) Run(c *circuit.Circuit, shots int) (map[int]int, error) {
	id, err := r.f.Submit(qrm.Request{Circuit: c, Shots: shots, User: r.user}, fleet.SubmitOptions{})
	if err != nil {
		return nil, err
	}
	rec, err := r.f.WaitContext(context.Background(), id)
	if err != nil {
		return nil, err
	}
	if rec.Status != fleet.JobDone {
		return nil, fmt.Errorf("job %d failed: %s", rec.ID, rec.Error)
	}
	// Project physical outcomes back onto logical qubits via the layout.
	job := rec.Result
	logicalCounts := make(map[int]int, len(job.Counts))
	for outcome, count := range job.Counts {
		logical := 0
		for i, p := range job.Layout {
			if outcome&(1<<uint(p)) != 0 {
				logical |= 1 << uint(i)
			}
		}
		logicalCounts[logical] += count
	}
	return logicalCounts, nil
}
