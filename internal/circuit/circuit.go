// Package circuit defines the gate-level intermediate representation shared
// by every layer of the stack: frontend adapters build Circuits, the
// transpiler lowers them to the QPU's native gate set, the device executor
// runs them, and the REST API serializes them. It is the Go equivalent of
// the common IR the paper's MQSS uses to enable "homogeneous compilation
// strategies across heterogeneous targets" (§2.6).
package circuit

import (
	"fmt"
	"math"
	"strings"
)

// Gate names understood by the IR. PRX, RZ and CZ form the native set of the
// square-grid transmon QPU; the rest are frontend conveniences the
// transpiler lowers.
const (
	OpH       = "h"
	OpX       = "x"
	OpY       = "y"
	OpZ       = "z"
	OpS       = "s"
	OpSdag    = "sdg"
	OpT       = "t"
	OpTdag    = "tdg"
	OpRX      = "rx"
	OpRY      = "ry"
	OpRZ      = "rz"
	OpPRX     = "prx"
	OpU3      = "u3" // generic single-qubit unitary U3(θ, φ, λ)
	OpCZ      = "cz"
	OpCNOT    = "cx"
	OpSWAP    = "swap"
	OpCRZ     = "crz" // controlled-RZ(θ)
	OpCCX     = "ccx" // Toffoli
	OpBarrier = "barrier"
)

// arity and parameter count per op.
type opSpec struct {
	qubits int
	params int
}

var opSpecs = map[string]opSpec{
	OpH: {1, 0}, OpX: {1, 0}, OpY: {1, 0}, OpZ: {1, 0},
	OpS: {1, 0}, OpSdag: {1, 0}, OpT: {1, 0}, OpTdag: {1, 0},
	OpRX: {1, 1}, OpRY: {1, 1}, OpRZ: {1, 1}, OpPRX: {1, 2}, OpU3: {1, 3},
	OpCZ: {2, 0}, OpCNOT: {2, 0}, OpSWAP: {2, 0}, OpCRZ: {2, 1},
	OpCCX:     {3, 0},
	OpBarrier: {0, 0},
}

// KnownOp reports whether name is a gate the IR understands.
func KnownOp(name string) bool {
	_, ok := opSpecs[name]
	return ok
}

// Gate is one operation in a circuit.
type Gate struct {
	Name   string    `json:"name"`
	Qubits []int     `json:"qubits"`
	Params []float64 `json:"params,omitempty"`
}

// Validate checks arity and parameter count.
func (g Gate) Validate(numQubits int) error {
	return validate(g.Name, g.Params, g.Qubits, numQubits)
}

// validate takes the gate's fields apart so the operand slices of a builder
// call stay on the caller's stack (only the name reaches an error value).
func validate(name string, params []float64, qubits []int, numQubits int) error {
	spec, ok := opSpecs[name]
	if !ok {
		return fmt.Errorf("circuit: unknown gate %q", name)
	}
	// A barrier may name any subset of qubits, but each must exist.
	if len(qubits) != spec.qubits && name != OpBarrier {
		return fmt.Errorf("circuit: gate %q wants %d qubits, got %d", name, spec.qubits, len(qubits))
	}
	if len(params) != spec.params {
		return fmt.Errorf("circuit: gate %q wants %d params, got %d", name, spec.params, len(params))
	}
	// NaN and ±Inf have no JSON spelling: a job carrying one could never
	// reach the journal, so it is refused before it is minted.
	for _, p := range params {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("circuit: gate %q parameter %v is not finite", name, p)
		}
	}
	for i, q := range qubits {
		if q < 0 || q >= numQubits {
			return fmt.Errorf("circuit: gate %q qubit %d out of range [0, %d)", name, q, numQubits)
		}
		for _, p := range qubits[:i] {
			if p == q {
				return fmt.Errorf("circuit: gate %q uses qubit %d twice", name, q)
			}
		}
	}
	return nil
}

func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Name)
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	for i, q := range g.Qubits {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}

// Circuit is an ordered gate list over a fixed qubit register. Measurement
// of all qubits in the Z basis is implicit at the end, matching the
// histogram-of-bitstrings output format of §2.4.
type Circuit struct {
	Name      string `json:"name,omitempty"`
	NumQubits int    `json:"num_qubits"`
	Gates     []Gate `json:"gates"`

	// qubits and params are the arenas Append carves gate operands from, so
	// a built or copied circuit costs a few allocations, not two per gate.
	// Nil arenas are valid: the gates of a literal own their slices. A
	// decoded circuit's arenas hold its gates' operands, and the next
	// UnmarshalBinary into it reuses them.
	qubits []int
	params []float64
}

// New returns an empty circuit over n qubits.
func New(n int, name string) *Circuit {
	return &Circuit{Name: name, NumQubits: n}
}

// NewLike returns an empty circuit over n qubits with src's name and room for
// src's gates: a pass whose output is about the size of its input allocates
// once per circuit.
func NewLike(src *Circuit, n int) *Circuit {
	c := new(Circuit)
	c.Reuse(src, n)
	return c
}

// Reuse empties c for a pass that writes a circuit over n qubits named like
// src and about src's size: the gate list and the operand arenas keep their
// storage, grown to src's gates and operands when they hold less, so a
// circuit reused pass after pass stops allocating once it has grown. Every
// gate c held before is gone, and its operands are overwritten as the new
// gates are appended.
func (c *Circuit) Reuse(src *Circuit, n int) {
	qubits, params := 0, 0
	for i := range src.Gates {
		qubits += len(src.Gates[i].Qubits)
		params += len(src.Gates[i].Params)
	}
	c.Name, c.NumQubits = src.Name, n
	if c.Gates == nil || cap(c.Gates) < len(src.Gates) { // an empty pass output is [], not null
		c.Gates = make([]Gate, 0, len(src.Gates))
	}
	if cap(c.qubits) < qubits {
		c.qubits = make([]int, 0, qubits)
	}
	if cap(c.params) < params {
		c.params = make([]float64, 0, params)
	}
	c.Gates, c.qubits, c.params = c.Gates[:0], c.qubits[:0], c.params[:0]
}

// Validate checks every gate against the register size.
func (c *Circuit) Validate() error {
	if c.NumQubits < 1 {
		return fmt.Errorf("circuit: register size %d must be >= 1", c.NumQubits)
	}
	for i, g := range c.Gates {
		if err := g.Validate(c.NumQubits); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := NewLike(c, c.NumQubits)
	for _, g := range c.Gates {
		out.Append(g.Name, g.Params, g.Qubits...)
	}
	return out
}

// Append adds a gate without validating it — for passes that rewrite a
// circuit validated at their door; AddGate is the checked form. The operands
// are copied: the new gate shares no storage with params or qubits.
func (c *Circuit) Append(name string, params []float64, qubits ...int) {
	c.Gates = append(c.Gates, Gate{Name: name, Qubits: carve(&c.qubits, qubits), Params: carve(&c.params, params)})
}

// carve copies src into the arena's spare capacity and returns the copy capped
// to its own length, so an append on one gate reallocates instead of writing
// into its neighbour. A full arena is replaced, not regrown: earlier gates keep
// the chunk they point into.
func carve[T any](arena *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if len(src) > cap(*arena)-len(*arena) {
		*arena = make([]T, 0, max(2*cap(*arena), 16, len(src)))
	}
	start := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// append validates and adds a gate, panicking on programmer error — the
// builder methods are meant for statically-correct construction; use
// AddGate for data-driven paths.
func (c *Circuit) append(name string, params []float64, qubits ...int) *Circuit {
	if err := validate(name, params, qubits, c.NumQubits); err != nil {
		panic(err)
	}
	c.Append(name, params, qubits...)
	return c
}

// AddGate validates and appends a copy of g, returning an error on bad input.
func (c *Circuit) AddGate(g Gate) error {
	if err := g.Validate(c.NumQubits); err != nil {
		return err
	}
	c.Append(g.Name, g.Params, g.Qubits...)
	return nil
}

// Builder methods. Each returns the circuit for chaining.

func (c *Circuit) H(q int) *Circuit    { return c.append(OpH, nil, q) }
func (c *Circuit) X(q int) *Circuit    { return c.append(OpX, nil, q) }
func (c *Circuit) Y(q int) *Circuit    { return c.append(OpY, nil, q) }
func (c *Circuit) Z(q int) *Circuit    { return c.append(OpZ, nil, q) }
func (c *Circuit) S(q int) *Circuit    { return c.append(OpS, nil, q) }
func (c *Circuit) Sdag(q int) *Circuit { return c.append(OpSdag, nil, q) }
func (c *Circuit) T(q int) *Circuit    { return c.append(OpT, nil, q) }
func (c *Circuit) Tdag(q int) *Circuit { return c.append(OpTdag, nil, q) }

func (c *Circuit) RX(q int, theta float64) *Circuit { return c.append(OpRX, []float64{theta}, q) }
func (c *Circuit) RY(q int, theta float64) *Circuit { return c.append(OpRY, []float64{theta}, q) }
func (c *Circuit) RZ(q int, theta float64) *Circuit { return c.append(OpRZ, []float64{theta}, q) }
func (c *Circuit) PRX(q int, theta, phi float64) *Circuit {
	return c.append(OpPRX, []float64{theta, phi}, q)
}
func (c *Circuit) U3(q int, theta, phi, lambda float64) *Circuit {
	return c.append(OpU3, []float64{theta, phi, lambda}, q)
}
func (c *Circuit) CZ(a, b int) *Circuit { return c.append(OpCZ, nil, a, b) }
func (c *Circuit) CRZ(control, target int, theta float64) *Circuit {
	return c.append(OpCRZ, []float64{theta}, control, target)
}
func (c *Circuit) CCX(c1, c2, target int) *Circuit   { return c.append(OpCCX, nil, c1, c2, target) }
func (c *Circuit) CNOT(control, target int) *Circuit { return c.append(OpCNOT, nil, control, target) }
func (c *Circuit) SWAP(a, b int) *Circuit            { return c.append(OpSWAP, nil, a, b) }
func (c *Circuit) Barrier(qs ...int) *Circuit        { return c.append(OpBarrier, nil, qs...) }

// GHZ builds the n-qubit GHZ preparation circuit used as the standardized
// health check (§3.2).
func GHZ(n int) *Circuit {
	c := New(n, fmt.Sprintf("ghz-%d", n))
	c.H(0)
	for q := 1; q < n; q++ {
		c.CNOT(q-1, q)
	}
	return c
}

// Depth returns the circuit depth: the number of layers when gates that act
// on disjoint qubits are packed greedily. Barriers seal layers.
func (c *Circuit) Depth() int {
	var stack [64]int // a register this small keeps its levels off the heap
	level := stack[:]
	if c.NumQubits > len(stack) {
		level = make([]int, c.NumQubits)
	}
	depth := 0
	barrier := 0
	for _, g := range c.Gates {
		if g.Name == OpBarrier {
			barrier = depth
			continue
		}
		l := barrier
		for _, q := range g.Qubits {
			if level[q] > l {
				l = level[q]
			}
		}
		l++
		for _, q := range g.Qubits {
			level[q] = l
		}
		if l > depth {
			depth = l
		}
	}
	return depth
}

// CountOp returns how many gates named op the circuit contains.
func (c *Circuit) CountOp(op string) int {
	n := 0
	for _, g := range c.Gates {
		if g.Name == op {
			n++
		}
	}
	return n
}

// TwoQubitCount returns the number of two-qubit gates.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Qubits) == 2 && g.Name != OpBarrier {
			n++
		}
	}
	return n
}

// IsNative reports whether the circuit only uses the native set
// {PRX, RZ, CZ} (plus barriers).
func (c *Circuit) IsNative() bool {
	for _, g := range c.Gates {
		switch g.Name {
		case OpPRX, OpRZ, OpCZ, OpBarrier:
		default:
			return false
		}
	}
	return true
}

// normalizeAngle maps an angle into (-π, π].
func normalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	}
	if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
