package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

func init() { register("circuit+quantum", probeQuantum) }

// compact renumbers the qubits a native circuit touches to 0..k-1, as the
// execution engine does before simulating: the transpiler's output spans
// the whole device register, the state vector only the qubits in use.
func compact(c *circuit.Circuit) *circuit.Circuit {
	used := map[int]bool{}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			used[q] = true
		}
	}
	order := make([]int, 0, len(used))
	for q := range used {
		order = append(order, q)
	}
	sort.Ints(order)
	to := map[int]int{}
	for i, q := range order {
		to[q] = i
	}
	out := &circuit.Circuit{NumQubits: len(order)}
	for _, g := range c.Gates {
		ng := circuit.Gate{Name: g.Name, Params: g.Params, Qubits: make([]int, len(g.Qubits))}
		for i, q := range g.Qubits {
			ng.Qubits[i] = to[q]
		}
		out.Gates = append(out.Gates, ng)
	}
	return out
}

// probeQuantum is the two bottom rungs: lowering a native circuit to a flat
// program (circuit.Compile), then one pass of the kernels over a state
// vector and one bulk sampling of the shots. A noisy job makes several such
// passes; device.branch_leaves_per_shot x shots says how many.
func probeQuantum(e *env) error {
	rng := rand.New(rand.NewSource(1))
	var compile, run, sample []time.Duration
	var gateAmps float64
	var dst []int
	for i, j := range e.jobs {
		native, err := e.native(i)
		if err != nil {
			return err
		}
		small := compact(native)
		var prog *quantum.Program
		d, err := e.timed(i, spanCircuit, spanDevice, func() (err error) {
			prog, err = circuit.Compile(small)
			return err
		})
		if err != nil {
			return err
		}
		compile = append(compile, d)

		st, err := quantum.NewState(small.NumQubits)
		if err != nil {
			return err
		}
		d, err = e.timed(i, spanQuantum, spanDevice, func() error { return prog.RunOn(st) })
		if err != nil {
			return err
		}
		run = append(run, d)
		// Every program op is one sweep over all 2^n amplitudes.
		gateAmps += float64(len(prog.Ops)) * float64(int(1)<<small.NumQubits)

		d, _ = e.timed(i, spanQuantum, spanDevice, func() error {
			dst = st.SampleBitstringsInto(dst, j.Shots, rng)
			return nil
		})
		sample = append(sample, d)
	}
	n := float64(len(e.jobs))
	var runNs, sampleNs float64
	for i := range run {
		runNs += float64(run[i])
		sampleNs += float64(sample[i])
	}
	e.metrics["circuit.compile_us_p50"] = p50us(compile)
	e.metrics["quantum.gate_amp_ops_per_job"] = gateAmps / n
	e.metrics["quantum.run_ns_per_gate_amp"] = runNs / gateAmps
	// Computed, not measured: each gate-amplitude op reads and writes one
	// complex128.
	e.metrics["quantum.computed_bytes_per_job"] = 16 * 2 * gateAmps / n
	e.metrics["quantum.sample_ns_per_shot"] = sampleNs / (n * float64(e.w.Shots))
	return nil
}
