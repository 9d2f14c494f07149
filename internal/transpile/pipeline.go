package transpile

import (
	"fmt"

	"repro/internal/circuit"
)

// Options configures the full transpilation pipeline.
type Options struct {
	Placement PlacementStrategy
	Routing   RoutingStrategy
	// SkipOptimize disables the peephole pass (for ablation benchmarks).
	SkipOptimize bool
}

// Result is the output of the full pipeline.
type Result struct {
	Circuit       *circuit.Circuit // native gates over the physical register
	InitialLayout Layout
	FinalLayout   Layout
	Stats         Stats
}

// Stats summarizes what the pipeline did.
type Stats struct {
	InputGates    int
	OutputGates   int
	InputDepth    int
	OutputDepth   int
	Input2Q       int
	OutputCZ      int
	SwapsInserted int
}

func (s Stats) String() string {
	return fmt.Sprintf("transpile{gates %d→%d, depth %d→%d, 2q %d→%d cz, swaps %d}",
		s.InputGates, s.OutputGates, s.InputDepth, s.OutputDepth,
		s.Input2Q, s.OutputCZ, s.SwapsInserted)
}

// Transpile runs the full pipeline: decompose → place → route → decompose
// (only when routing inserted SWAPs to lower) → optimize. The circuit is
// validated here, once; the passes trust what they are handed and what they
// build. The result is a native circuit over the physical register,
// executable by the device.
func Transpile(c *circuit.Circuit, t *Target, opts Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	stats := Stats{
		InputGates: len(c.Gates),
		InputDepth: c.Depth(),
		Input2Q:    c.TwoQubitCount(),
	}

	lowered, err := decompose(c)
	if err != nil {
		return nil, err
	}
	layout, err := Place(c.NumQubits, t, opts.Placement)
	if err != nil {
		return nil, err
	}
	routed, err := routeWith(lowered, t, layout, opts.Routing)
	if err != nil {
		return nil, err
	}
	native := routed.Circuit
	if routed.SwapsInserted > 0 {
		if native, err = decompose(native); err != nil {
			return nil, err
		}
	}
	final := native
	if !opts.SkipOptimize {
		final = Optimize(native)
	}
	if !final.IsNative() {
		return nil, fmt.Errorf("transpile: internal error: pipeline output is not native")
	}
	stats.OutputGates = len(final.Gates)
	stats.OutputDepth = final.Depth()
	stats.OutputCZ = final.CountOp(circuit.OpCZ)
	stats.SwapsInserted = routed.SwapsInserted
	return &Result{
		Circuit:       final,
		InitialLayout: routed.InitialLayout,
		FinalLayout:   routed.FinalLayout,
		Stats:         stats,
	}, nil
}

// ExpectedFidelity estimates the product-of-gate-fidelities success
// probability of a native circuit on the target, including readout on every
// qubit — the cost function that makes fidelity-aware placement meaningful.
func ExpectedFidelity(c *circuit.Circuit, t *Target) float64 {
	f := 1.0
	used := map[int]bool{}
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.OpPRX:
			f *= t.f1q(g.Qubits[0])
			used[g.Qubits[0]] = true
		case circuit.OpCZ:
			f *= t.fcz(g.Qubits[0], g.Qubits[1])
			used[g.Qubits[0]] = true
			used[g.Qubits[1]] = true
		}
	}
	for q := range used {
		f *= t.fread(q)
	}
	return f
}
