package device

import (
	"fmt"
	"math/rand"
	"sync"
	_ "unsafe" // go:linkname

	"repro/internal/circuit"
	"repro/internal/quantum"
	"repro/internal/transpile"
)

// What the package's external tests (package device_test, which may import
// the fleet and qrm pipeline above this package) read of an epoch's internals.

// MaxCompiledJobs is the bound on one epoch's compile map.
const MaxCompiledJobs = maxCompiledJobs

// Entries is the size of the epoch's compile map.
func (ep *Epoch) Entries() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.progs)
}

// Lookup returns the epoch's entry for c transpiled under placement, or nil.
func (ep *Epoch) Lookup(c *circuit.Circuit, placement transpile.PlacementStrategy) *Compiled {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.progs[progKey{c.Fingerprint(), placement}]
}

// NoiseMismatch names the first noise site of e's program that does not
// hold the epoch's own precomputed channel for its qubit (a PRX) or coupler
// endpoint (after a CZ), or returns "" when every site does. Identity, not
// equality: a site must share the epoch's Kraus operators, not recompose
// them.
func (ep *Epoch) NoiseMismatch(e *Compiled) string {
	cj := e.cj
	var cz *trajStep
	for i := range cj.noisy {
		s := &cj.noisy[i]
		var want quantum.Channel
		switch s.kind {
		case stepCZ:
			cz = s
			continue
		case stepGate:
			continue
		case stepGateNoise:
			want = ep.prx[cj.toPhysical[s.q]]
		case stepNoise:
			other := cz.q2
			if s.q == cz.q2 {
				other = cz.q
			}
			want = ep.czNoise(cj.toPhysical[s.q], cj.toPhysical[other])
		}
		if len(s.ch.Kraus) != len(want.Kraus) || &s.ch.Kraus[0] != &want.Kraus[0] {
			return fmt.Sprintf("step %d (kind %d, compact qubit %d) of epoch %d's program", i, s.kind, s.q, ep.Num)
		}
	}
	return ""
}

// vectorRows is the quantum package's row-kernel switch, set at its init
// from CPUID: true when one-qubit passes run on the vector unit. Only tests
// reach it, by its link name, to run a job on the Go rows too.
//
//go:linkname vectorRows repro/internal/quantum.vectorRows
var vectorRows bool

// passKind classifies the matrix of a pass over the amplitudes by the
// Apply1Q path its shape takes.
type passKind int

const (
	passRealDiagonal    passKind = iota // two real multiplies per amplitude
	passRemainder                       // real diagonal, complex off-diagonal: 20 flops per pair
	passComplexDiagonal                 // diagonal with a non-real entry: the dense row
	passDense                           // non-real diagonal and off-diagonal: the dense row
	numPassKinds
)

func (k passKind) String() string {
	return [...]string{"real-diagonal", "remainder", "complex-diagonal", "dense"}[k]
}

func kindOf(m quantum.Matrix2) passKind {
	realDiag := imag(m[0][0]) == 0 && imag(m[1][1]) == 0
	diag := m[0][1] == 0 && m[1][0] == 0
	switch {
	case realDiag && diag:
		return passRealDiagonal
	case realDiag:
		return passRemainder
	case diag:
		return passComplexDiagonal
	}
	return passDense
}

// passCounts is what countPasses saw: passes by kind, made by the flushes
// before the leaf (CZs, exact sites, the renormalisation guard) and by the
// leaf's own.
type passCounts struct {
	flush, leaf [numPassKinds]int
}

// countPasses runs f with flushHook counting every pass a flush makes, on
// either goroutine of a helped job. The hook is package state, so tests
// that call it must not run in parallel.
func countPasses(f func()) passCounts {
	var (
		c  passCounts
		mu sync.Mutex
	)
	flushHook = func(r quantum.Matrix2, leaf bool) {
		mu.Lock()
		defer mu.Unlock()
		if leaf {
			c.leaf[kindOf(r)]++
		} else {
			c.flush[kindOf(r)]++
		}
	}
	defer func() { flushHook = nil }()
	f()
	return c
}

// rootWalker returns the walker of a job of cj and the job's root frame,
// drawing from rng, for a test that drives one step of the walk.
func rootWalker(cj *compiledJob, rng *rand.Rand) (*walker, *frame) {
	j := &branchJob{cj: cj}
	j.main.job, j.root.rng = j, rng
	j.root.p.reset()
	return &j.main, &j.root
}
