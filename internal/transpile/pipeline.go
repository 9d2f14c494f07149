package transpile

import (
	"fmt"
	"strconv"

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
	Circuit *circuit.Circuit // native gates over the physical register
	// The layouts are read-only: InitialLayout is the target's placement,
	// shared by every result placed the same way, and FinalLayout is it too
	// when routing inserted no SWAP.
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

// String is the stats line a job's compile_stats carries:
// "transpile{gates 28→25, depth 8→8, 2q 8→8 cz, swaps 0}". Every compile
// miss formats one, so it is appended by hand rather than through fmt.
func (s Stats) String() string {
	var buf [96]byte
	b := append(buf[:0], "transpile{gates "...)
	b = strconv.AppendInt(b, int64(s.InputGates), 10)
	b = strconv.AppendInt(append(b, "→"...), int64(s.OutputGates), 10)
	b = strconv.AppendInt(append(b, ", depth "...), int64(s.InputDepth), 10)
	b = strconv.AppendInt(append(b, "→"...), int64(s.OutputDepth), 10)
	b = strconv.AppendInt(append(b, ", 2q "...), int64(s.Input2Q), 10)
	b = strconv.AppendInt(append(b, "→"...), int64(s.OutputCZ), 10)
	b = strconv.AppendInt(append(b, " cz, swaps "...), int64(s.SwapsInserted), 10)
	return string(append(b, '}'))
}

// Scratch is a compile's working memory: the two circuits the passes
// ping-pong between, each pass writing the one its input is not, and the
// per-qubit tables they index. A fleet worker keeps one for its lifetime, so
// once its circuits have grown a fresh-angle loop's passes allocate nothing;
// a caller without a worker passes new(Scratch). A compile copies only its
// final circuit out, at its exact size: nothing it returns points into the
// scratch, and the next compile overwrites all of it. A Scratch serves one
// compile at a time.
type Scratch struct {
	circs [2]circuit.Circuit
	next  int // the circuit the next pass writes
	tab   []int
}

// circuit hands a pass its output: the scratch circuit the previous pass did
// not write, emptied for a circuit over n qubits about the size of src.
func (s *Scratch) circuit(src *circuit.Circuit, n int) *circuit.Circuit {
	out := &s.circs[s.next]
	s.next ^= 1
	out.Reuse(src, n)
	return out
}

// ints returns n ints of the scratch's table, for a pass's per-qubit
// bookkeeping; their values are whatever the last pass left.
func (s *Scratch) ints(n int) []int {
	if cap(s.tab) < n {
		s.tab = make([]int, n)
	}
	return s.tab[:n]
}

// Transpile runs the full pipeline: decompose → place → route → decompose
// (only when routing inserted SWAPs to lower) → optimize. The circuit is
// validated here, once; the passes trust what they are handed and what they
// build. The result is a native circuit over the physical register,
// executable by the device.
func Transpile(c *circuit.Circuit, t *Target, opts Options) (*Result, error) {
	return new(Scratch).Transpile(c, t, opts)
}

// Transpile is the package's Transpile with every pass written into s: the
// result shares no storage with it.
func (s *Scratch) Transpile(c *circuit.Circuit, t *Target, opts Options) (*Result, error) {
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

	lowered, err := decompose(c, s)
	if err != nil {
		return nil, err
	}
	layout, err := place(c.NumQubits, t, opts.Placement)
	if err != nil {
		return nil, err
	}
	routed, err := routeWith(lowered, t, layout, opts.Routing, s)
	if err != nil {
		return nil, err
	}
	native := routed.Circuit
	if routed.SwapsInserted > 0 {
		if native, err = decompose(native, s); err != nil {
			return nil, err
		}
	}
	final := native
	if !opts.SkipOptimize {
		final = optimize(native, s)
	}
	if !final.IsNative() {
		return nil, fmt.Errorf("transpile: internal error: pipeline output is not native")
	}
	stats.OutputGates = len(final.Gates)
	stats.OutputDepth = final.Depth()
	stats.OutputCZ = final.CountOp(circuit.OpCZ)
	stats.SwapsInserted = routed.SwapsInserted
	return &Result{
		Circuit:       final.Clone(),
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
