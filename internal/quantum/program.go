package quantum

import (
	"fmt"
	"sync"
)

// This file holds a flat program — a circuit lowered to precomputed gate
// matrices that apply with zero per-gate decoding; the compile step lives in
// internal/circuit, which has the gate IR — and the state pool that
// recycles amplitude buffers, so the execution engine's repeated runs
// allocate nothing.

// ProgOpKind discriminates the operation classes a Program can hold.
type ProgOpKind uint8

const (
	// ProgOp1Q applies M2 to qubit Q1.
	ProgOp1Q ProgOpKind = iota
	// ProgOp2Q applies M4 to qubits (Q1, Q2) with Q1 the low bit.
	ProgOp2Q
	// ProgOpToffoli applies CCX with controls Q1, Q2 and target Q3.
	ProgOpToffoli
)

// ProgOp is one lowered operation: the unitary is precomputed, so executing
// it is a single kernel call with no gate-name dispatch or matrix
// construction.
type ProgOp struct {
	Kind       ProgOpKind
	Q1, Q2, Q3 int
	M2         Matrix2
	M4         Matrix4
}

// Program is a circuit lowered to a flat list of precomputed operations over
// a fixed register, applied in one pass by RunOn.
type Program struct {
	NumQubits int
	Ops       []ProgOp
}

// RunOn applies the program's operations, in order, to st. The state must
// have at least NumQubits qubits.
func (p *Program) RunOn(st *State) error {
	if st.NumQubits() < p.NumQubits {
		return fmt.Errorf("quantum: state has %d qubits, program needs %d", st.NumQubits(), p.NumQubits)
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		var err error
		switch op.Kind {
		case ProgOp1Q:
			err = st.Apply1Q(op.Q1, op.M2)
		case ProgOp2Q:
			err = st.Apply2Q(op.Q1, op.Q2, op.M4)
		case ProgOpToffoli:
			err = st.ApplyToffoli(op.Q1, op.Q2, op.Q3)
		default:
			err = fmt.Errorf("quantum: unknown program op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("program op %d: %w", i, err)
		}
	}
	return nil
}

// statePools recycles State buffers by qubit count. A 2^n amplitude slice is
// the dominant allocation of a simulated shot; the shot loop acquires,
// resets in place, and releases instead of allocating per shot.
var statePools [MaxQubits + 1]sync.Pool

// AcquireState returns a pooled n-qubit state reset to |00...0>, allocating
// only when the pool is empty. Release with ReleaseState when done.
func AcquireState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("quantum: qubit count %d outside [1, %d]", n, MaxQubits)
	}
	if v := statePools[n].Get(); v != nil {
		st := v.(*State)
		st.Reset()
		return st, nil
	}
	return NewState(n)
}

// AcquireStateCopy returns a pooled state initialized as a copy of src —
// the fork primitive of the shot-branching engine: a trajectory subtree
// that splits off a shared Kraus prefix gets its own amplitudes without a
// fresh 2^n allocation.
func AcquireStateCopy(src *State) (*State, error) {
	if src == nil {
		return nil, fmt.Errorf("quantum: cannot copy nil state")
	}
	if v := statePools[src.n].Get(); v != nil {
		st := v.(*State)
		copy(st.amps, src.amps)
		return st, nil
	}
	return src.Clone(), nil
}

// ReleaseState returns a state to the pool for reuse. The caller must not
// touch st afterwards. Releasing nil is a no-op.
func ReleaseState(st *State) {
	if st == nil {
		return
	}
	statePools[st.n].Put(st)
}
