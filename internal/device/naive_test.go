package device

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// This file holds the naive per-shot executor. Nothing served runs it: it
// is the reference the engine's equivalence tests compare against, and the
// "before" rows of the sim bench (simbench_test.go, BENCH_sim.json).

// ExecuteNaive is the reference per-shot implementation: it re-simulates
// the whole circuit from scratch for every shot, re-deriving each gate's
// unitary and noise parameters as it goes. The compiled engine (Execute,
// engine.go) implements the identical noise model.
//
// Noise model per shot (trajectory method):
//   - every PRX applies depolarizing(1-F1Q) on its qubit;
//   - every CZ applies depolarizing((1-FCZ)/2) on both qubits — CZ must act
//     on a connected coupler pair;
//   - RZ is virtual (frame update): error-free and duration-free;
//   - after each gate, the acting qubits accumulate T1/T2 decoherence for
//     the gate duration;
//   - measured bits flip through the per-qubit readout confusion model.
func (d *QPU) ExecuteNaive(c *circuit.Circuit, shots int) (*Result, error) {
	if err := d.validateExecution(c, shots); err != nil {
		return nil, err
	}

	// Snapshot the mutable device state under the lock, then simulate
	// outside it. The QPU mutex protects the calibration record and the RNG
	// stream, not the trajectory simulation itself, so independent Execute
	// calls overlap on the wall clock — the property the QRM's concurrent
	// dispatch pipeline relies on. Single-threaded callers still get a
	// deterministic per-call RNG stream derived from the seeded device RNG.
	d.mu.Lock()
	if d.injectedFaults > 0 {
		d.injectedFaults--
		latency := d.execLatency
		d.mu.Unlock()
		// The fault surfaces after the control-electronics round trip, like a
		// real readback failure — so callers see the job in flight first.
		if latency > 0 {
			time.Sleep(latency)
		}
		return nil, fmt.Errorf("device: %s: control electronics fault (injected)", d.name)
	}
	calib := d.Epoch().Calibration
	rng := rand.New(rand.NewSource(d.rng.Int63()))
	latency := d.execLatency
	d.mu.Unlock()

	// Compact the register: only qubits the circuit touches need amplitudes.
	// A routed 5-qubit GHZ lives on a 20-qubit physical register, but
	// simulating 2^20 amplitudes per shot would be a 4000x waste; untouched
	// qubits stay |0> and only see readout noise. The compact circuit is
	// semantically identical — outcomes are re-expanded to physical bit
	// positions before readout corruption.
	compact, toPhysical := compactCircuit(c)

	counts := make(map[int]int)
	var readout *quantum.ReadoutModel
	if !d.twin {
		readout = readoutModel(calib, c.NumQubits)
	}
	for shot := 0; shot < shots; shot++ {
		var outcome int
		if compact != nil {
			st, err := quantum.NewState(compact.NumQubits)
			if err != nil {
				return nil, err
			}
			if err := d.runShot(st, compact, toPhysical, calib, rng); err != nil {
				return nil, err
			}
			sampled := st.SampleBitstrings(1, rng)[0]
			for i, p := range toPhysical {
				if sampled&(1<<uint(i)) != 0 {
					outcome |= 1 << uint(p)
				}
			}
		}
		if readout != nil {
			outcome = readout.Corrupt(outcome, rng)
		}
		counts[outcome]++
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	dur := estimateDurationUs(c, shots)
	return &Result{Counts: counts, Shots: shots, DurationUs: dur}, nil
}

// runShot applies the compact circuit with trajectory noise onto st.
// toPhysical maps compact indices back to physical qubits so calibration
// parameters are looked up for the right hardware elements. calib and rng
// are per-call snapshots so shots run outside the device lock.
func (d *QPU) runShot(st *quantum.State, c *circuit.Circuit, toPhysical []int, calib *Calibration, rng *rand.Rand) error {
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.OpBarrier:
			continue
		case circuit.OpRZ:
			if err := st.Apply1Q(g.Qubits[0], quantum.RZ(g.Params[0])); err != nil {
				return err
			}
			// Virtual: no noise, no duration.
		case circuit.OpPRX:
			q := g.Qubits[0]
			if err := st.Apply1Q(q, quantum.PRX(g.Params[0], g.Params[1])); err != nil {
				return err
			}
			if !d.twin {
				pq := toPhysical[q]
				if err := applyGateNoise(st, q, pq, 1-calib.Qubits[pq].F1Q, PRXDurationUs, calib, rng); err != nil {
					return err
				}
			}
		case circuit.OpCZ:
			a, b := g.Qubits[0], g.Qubits[1]
			if err := st.Apply2Q(a, b, quantum.CZ); err != nil {
				return err
			}
			if !d.twin {
				pa, pb := toPhysical[a], toPhysical[b]
				errRate := (1 - calib.FCZ(pa, pb)) / 2
				if err := applyGateNoise(st, a, pa, errRate, CZDurationUs, calib, rng); err != nil {
					return err
				}
				if err := applyGateNoise(st, b, pb, errRate, CZDurationUs, calib, rng); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("device: non-native gate %q reached executor", g.Name)
		}
	}
	return nil
}

// applyGateNoise adds depolarizing gate error plus T1/T2 decoherence for the
// gate duration: q is the compact state index, physQ the hardware qubit the
// calibration parameters belong to.
func applyGateNoise(st *quantum.State, q, physQ int, errRate, durUs float64, calib *Calibration, rng *rand.Rand) error {
	if errRate > 0 {
		if err := st.ApplyChannel(q, quantum.Depolarizing(errRate), rng); err != nil {
			return err
		}
	}
	qc := calib.Qubits[physQ]
	gamma := 1 - math.Exp(-durUs/qc.T1)
	if err := st.ApplyChannel(q, quantum.AmplitudeDamping(gamma), rng); err != nil {
		return err
	}
	// Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1).
	tphiInv := 1/qc.T2 - 1/(2*qc.T1)
	if tphiInv > 0 {
		lambda := 1 - math.Exp(-durUs*tphiInv)
		if err := st.ApplyChannel(q, quantum.PhaseDamping(lambda), rng); err != nil {
			return err
		}
	}
	return nil
}

// compactCircuit rewrites a validated c onto the register compactRegister
// maps it to. It returns the compact circuit and the compact→physical index
// map, or (nil, nil) when the circuit touches no qubits.
func compactCircuit(c *circuit.Circuit) (*circuit.Circuit, []int) {
	var toCompact [quantum.MaxQubits]int
	toPhysical := compactRegister(c, &toCompact)
	if toPhysical == nil {
		return nil, nil
	}
	out := circuit.NewLike(c, len(toPhysical))
	for _, g := range c.Gates {
		if g.Name == circuit.OpBarrier {
			continue // barriers carry no execution semantics here
		}
		out.Append(g.Name, g.Params, g.Qubits...)
		qs := out.Gates[len(out.Gates)-1].Qubits
		for i, q := range qs {
			qs[i] = toCompact[q] - 1
		}
	}
	return out, toPhysical
}
