package device

import (
	"fmt"

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
