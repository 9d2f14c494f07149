package device

import (
	"math"
	"sync"

	"repro/internal/circuit"
	"repro/internal/quantum"
	"repro/internal/transpile"
)

// Epoch is one calibration state of a QPU together with everything derived
// from it. New, AdvanceDrift and Recalibrate each build the next one and
// publish it whole; readers load the current one with no lock and no copy.
// Nothing reachable from an Epoch changes after newEpoch returns, its
// Calibration and Target included: never edit them, publish a new epoch.
// The one exception is the compile map, which is born empty and dropped
// with its epoch, so a new calibration invalidates nothing.
type Epoch struct {
	// Num counts calibration changes since New: 0, 1, 2, ...
	Num         uint64
	Calibration *Calibration
	// Target is what the transpiler places and routes against.
	Target *transpile.Target
	// The Figure 4 means of Calibration, read by the router and the fleet
	// metrics.
	MeanF1Q, MeanFCZ, MeanFRead float64

	dev *QPU
	// chans holds the composed gate-noise channels the engine compiles in:
	// the PRX channel of each physical qubit, then each coupler's (topology
	// edge order) CZ channel on its endpoints, the lower-numbered qubit
	// first (prxNoise, czNoise). All empty on the digital twin. A program's
	// noise sites name their channel by its index here.
	chans []quantum.Channel
	// readout is the confusion model of the whole register, nil on the twin.
	readout *quantum.ReadoutModel

	// progs is the epoch's compile map, the one mutable part, under mu,
	// keyed by compileKey.
	mu    sync.Mutex
	progs map[string]*Compiled
}

// newEpoch derives epoch num from calibration c, which it takes ownership of.
func newEpoch(d *QPU, num uint64, c *Calibration) *Epoch {
	n, edges := d.topo.NumQubits(), d.topo.Edges()
	ep := &Epoch{
		Num: num, Calibration: c,
		Target: &transpile.Target{
			NumQubits: n,
			Edges:     edges,
			F1Q:       make([]float64, n),
			FRead:     make([]float64, n),
			FCZ:       make(map[[2]int]float64, len(edges)),
		},
		MeanF1Q: c.MeanF1Q(), MeanFCZ: c.MeanFCZ(), MeanFRead: c.MeanFReadout(),
		dev:   d,
		chans: make([]quantum.Channel, n+2*len(edges)),
		progs: make(map[string]*Compiled),
	}
	for q, qc := range c.Qubits {
		ep.Target.F1Q[q], ep.Target.FRead[q] = qc.F1Q, qc.FReadout
	}
	for _, e := range edges {
		ep.Target.FCZ[e] = c.FCZ(e[0], e[1])
	}
	if d.twin {
		return ep
	}
	ep.readout = readoutModel(c, n)
	for q, qc := range c.Qubits {
		ep.chans[ep.prxNoise(q)] = gateNoiseChannel(1-qc.F1Q, PRXDurationUs, qc.T1, qc.T2)
	}
	for i, e := range edges {
		errRate := (1 - c.FCZ(e[0], e[1])) / 2
		for k, q := range e {
			qc := c.Qubits[q]
			ep.chans[n+2*i+k] = gateNoiseChannel(errRate, CZDurationUs, qc.T1, qc.T2)
		}
	}
	return ep
}

// prxNoise is the index in chans of the channel a PRX leaves on qubit q.
func (ep *Epoch) prxNoise(q int) int32 { return int32(q) }

// czNoise is the index in chans of the channel a CZ on the coupler between a
// and b leaves on a.
func (ep *Epoch) czNoise(a, b int) int32 {
	topo := ep.dev.topo
	i := int32(topo.n + 2*topo.coupler[a*topo.n+b])
	if a > b {
		return i + 1
	}
	return i
}

// gateNoiseChannel returns the channel applyGateNoise would build per shot
// — depolarizing gate error plus T1/T2 decoherence for the gate duration —
// composed into a single channel, so the shot loop pays one Kraus selection
// per gate site instead of three. Channels with zero strength are dropped
// (they are identity); a channel with no Kraus operators means no noise.
func gateNoiseChannel(errRate, durUs, t1, t2 float64) quantum.Channel {
	var chs []quantum.Channel
	if errRate > 0 {
		chs = append(chs, quantum.Depolarizing(errRate))
	}
	if gamma := 1 - math.Exp(-durUs/t1); gamma > 0 {
		chs = append(chs, quantum.AmplitudeDamping(gamma))
	}
	// Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1).
	if tphiInv := 1/t2 - 1/(2*t1); tphiInv > 0 {
		if lambda := 1 - math.Exp(-durUs*tphiInv); lambda > 0 {
			chs = append(chs, quantum.PhaseDamping(lambda))
		}
	}
	var ch quantum.Channel
	if len(chs) > 0 {
		ch = chs[0]
		for _, next := range chs[1:] {
			ch = quantum.Compose(ch, next)
		}
	}
	return ch
}

// compileKey appends to b what names one compile of an epoch: the placement
// the circuit is transpiled under (placeNone for a native circuit handed
// straight to ExecuteCtx), then the circuit's binary form with its display
// name cleared, so a renamed circuit shares its compile and a hit is two
// equal circuits, not two equal hashes.
func compileKey(b []byte, c *circuit.Circuit, placement transpile.PlacementStrategy) []byte {
	unnamed := *c
	unnamed.Name = ""
	return unnamed.AppendBinary(append(b, byte(placement)))
}

// keyBuf is the stack buffer a compile key is built in: a hybrid-loop
// ansatz's key takes 284 bytes and a 12-qubit depth-4 random circuit's
// 1 266; a longer one spills to the heap.
type keyBuf [2048]byte

const placeNone transpile.PlacementStrategy = -1

// Compiled is one entry of an epoch's compile map: a circuit transpiled
// against the epoch's Target (no transpile result for a native circuit) and
// the engine program lowered from that onto the epoch's noise, held in the
// entry itself. Its owner fills it and then ends its flight, which releases
// the waiters; it never changes afterwards. filled, under the epoch's mu,
// marks the end of the flight for eviction.
type Compiled struct {
	flight sync.WaitGroup
	filled bool
	res    *transpile.Result
	stats  string // res.Stats.String(), formatted once per compile
	cj     compiledJob
	err    error
}

// Result is the transpilation the job's layout and compile stats come from.
func (e *Compiled) Result() *transpile.Result { return e.res }

// CompileStats is the transpilation's stats as text (transpile.Stats.String),
// "" for a native circuit.
func (e *Compiled) CompileStats() string { return e.stats }

// maxCompiledJobs bounds an epoch's compile map; recompiling is always
// correct.
const maxCompiledJobs = 256

// Prepare compiles c for this epoch — transpiles it under placement against
// the epoch's Target, then lowers the result onto the epoch's noise — or
// returns the entry an earlier job of the epoch left, waiting on it while it
// compiles (single flight). hit reports that this caller did not compile.
// QPU.Run executes the entry, so a job's layout and its noise always come
// from the same calibration.
//
// The transpiler's passes run in sc, which only the owner's compile touches:
// the entry keeps what the compile copied out of it (the routed circuit at
// its exact size), never sc's own storage, so the caller may reuse sc for its
// next compile at once. A fleet worker passes its own; a caller with none
// passes new(transpile.Scratch).
func (ep *Epoch) Prepare(c *circuit.Circuit, placement transpile.PlacementStrategy, sc *transpile.Scratch) (e *Compiled, hit bool, err error) {
	var kb keyBuf
	key := compileKey(kb[:0], c, placement)
	e, owner := ep.entry(key)
	if owner {
		e.res, e.err = sc.Transpile(c, ep.Target, transpile.Options{Placement: placement})
		if e.err == nil {
			e.stats = e.res.Stats.String()
			if e.err = ep.dev.validateNative(e.res.Circuit); e.err == nil {
				e.err = ep.compileJob(&e.cj, e.res.Circuit)
			}
		}
		ep.done(key, e)
	}
	return ep.settled(e, owner)
}

// native is Prepare for an already native, validated circuit: the lookup
// ExecuteCtx makes.
func (ep *Epoch) native(c *circuit.Circuit) (*Compiled, bool, error) {
	var kb keyBuf
	key := compileKey(kb[:0], c, placeNone)
	e, owner := ep.entry(key)
	if owner {
		e.err = ep.compileJob(&e.cj, c)
		ep.done(key, e)
	}
	return ep.settled(e, owner)
}

// entry returns the map's entry for key, or registers an empty in-flight one
// that the caller (owner) must fill and hand to done. Only a new entry copies
// the key.
func (ep *Epoch) entry(key []byte) (e *Compiled, owner bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if e, ok := ep.progs[string(key)]; ok {
		return e, false
	}
	ep.evictLocked()
	e = new(Compiled)
	e.flight.Add(1)
	ep.progs[string(key)] = e
	return e, true
}

// done releases an owner's waiters. A failed compile leaves the map, so a
// later job retries it.
func (ep *Epoch) done(key []byte, e *Compiled) {
	ep.mu.Lock()
	e.filled = true
	if e.err != nil && ep.progs[string(key)] == e {
		delete(ep.progs, string(key))
	}
	ep.mu.Unlock()
	e.flight.Done()
}

// settled waits for e and counts the lookup: the owner's compile is a miss
// whatever its outcome, a waiter's a hit only when it got a program.
func (ep *Epoch) settled(e *Compiled, owner bool) (*Compiled, bool, error) {
	e.flight.Wait()
	if owner {
		ep.dev.compileMisses.Add(1)
	} else if e.err == nil {
		ep.dev.compileHits.Add(1)
	}
	if e.err != nil {
		return nil, !owner, e.err
	}
	return e, !owner, nil
}

// evictLocked keeps the map bounded. A full map drops completed entries down
// to half the bound: a loop of fresh-angle jobs keeps it full, and evicting
// one entry per miss would walk all of it on every miss. In-flight entries
// survive — evicting them would break single flight.
func (ep *Epoch) evictLocked() {
	if len(ep.progs) < maxCompiledJobs {
		return
	}
	for k, e := range ep.progs {
		if len(ep.progs) <= maxCompiledJobs/2 {
			return
		}
		if e.filled {
			delete(ep.progs, k)
		}
	}
}
