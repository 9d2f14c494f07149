package device

import (
	"bytes"

	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/telemetry/trace"
	"repro/internal/transpile"
)

// TestCompiledEntryOwnsItsCircuit holds the compile map to owning what it
// keeps. A worker's compile scratch is overwritten by its next compile, so an
// entry holding any of it — the routed circuit, a layout, the trajectory
// program — would change under every later job that reuses the entry. One
// worker compiles a routed job and a swap-free one, then 50 fresh circuits in
// the same scratch: both entries must read byte for byte as before and run
// to the same counts. Then two workers and single-flight waiters share
// repeated circuits, each reading what it got, under -race in CI.
func TestCompiledEntryOwnsItsCircuit(t *testing.T) {
	qpu := commissionedQPU(1)
	ep := qpu.Epoch()
	rng := rand.New(rand.NewSource(17))
	var sc transpile.Scratch

	kept := []*circuit.Circuit{scratchJob(rng, true), scratchJob(rng, false)}
	entries := make([]*Compiled, len(kept))
	before := make([][]byte, len(kept))
	counts := make([]map[int]int, len(kept))
	for i, c := range kept {
		e, hit, err := ep.Prepare(c, transpile.PlaceFidelityAware, &sc)
		if err != nil || hit {
			t.Fatalf("job %d: hit %v, %v", i, hit, err)
		}
		res, err := qpu.Run(trace.Span{}, e, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		entries[i], before[i], counts[i] = e, entryBytes(e), res.Counts
	}
	if entries[0].Result().Stats.SwapsInserted == 0 || entries[1].Result().Stats.SwapsInserted != 0 {
		t.Fatalf("swaps %d and %d: want a routed job and a swap-free one",
			entries[0].Result().Stats.SwapsInserted, entries[1].Result().Stats.SwapsInserted)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := ep.Prepare(scratchJob(rng, i%2 == 0), transpile.PlaceFidelityAware, &sc); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range entries {
		if after := entryBytes(e); !bytes.Equal(after, before[i]) {
			t.Errorf("entry %d changed under 50 later compiles in its worker's scratch:\nbefore %s\nafter  %s", i, before[i], after)
		}
		again, hit, err := ep.Prepare(kept[i], transpile.PlaceFidelityAware, &sc)
		if err != nil || !hit || again != e {
			t.Fatalf("entry %d: hit %v, same entry %v, %v", i, hit, again == e, err)
		}
		res, err := qpu.Run(trace.Span{}, e, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Counts) != fmt.Sprint(counts[i]) {
			t.Errorf("entry %d re-ran to %v, first ran to %v", i, res.Counts, counts[i])
		}
	}

	t.Run("workers-and-waiters", func(t *testing.T) {
		ep := New20Q(3).Epoch()
		jobs := func(n int) []*circuit.Circuit {
			cs := make([]*circuit.Circuit, n)
			for i := range cs {
				cs[i] = scratchJob(rng, i%2 == 0)
			}
			return cs
		}
		// Each worker first owns three of owned; then both compile fresh
		// circuits in their scratch, and meet the waiters on shared.
		owned, shared, fresh := jobs(6), jobs(6), [2][]*circuit.Circuit{jobs(24), jobs(24)}
		errs := make(chan error, 8)
		// Every caller reads all the entry it got keeps, so an entry sharing
		// a worker's scratch races with that worker's next compile.
		prepare := func(c *circuit.Circuit, sc *transpile.Scratch) {
			e, _, err := ep.Prepare(c, transpile.PlaceFidelityAware, sc)
			if err != nil {
				errs <- err
				return
			}
			entryBytes(e)
		}
		var wg, compiled sync.WaitGroup
		compiled.Add(2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var sc transpile.Scratch // the worker's own
				for i := w; i < len(owned); i += 2 {
					prepare(owned[i], &sc)
				}
				compiled.Done()
				for i, c := range fresh[w] {
					prepare(c, &sc)
					prepare(shared[(i+w)%len(shared)], &sc)
				}
			}(w)
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				compiled.Wait()
				for i := 0; i < 24; i++ {
					prepare(owned[(i+r)%len(owned)], new(transpile.Scratch))
					prepare(shared[(i+r)%len(shared)], new(transpile.Scratch))
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// scratchJob is a fresh-angle 5-qubit job in logical gates: rx and h layers,
// cx brickwork, and with routed set a cz between the ends of the placed
// chain, which routing has to meet with SWAPs.
func scratchJob(rng *rand.Rand, routed bool) *circuit.Circuit {
	c := circuit.New(5, "scratch")
	for l := 0; l < 3; l++ {
		for q := 0; q < 5; q++ {
			c.RX(q, 2*math.Pi*rng.Float64())
		}
		c.H(l)
		for q := l % 2; q+1 < 5; q += 2 {
			c.CNOT(q, q+1)
		}
	}
	if routed {
		c.CZ(0, 4)
	}
	return c
}

// entryBytes renders all a compile-map entry keeps: the transpilation (routed
// circuit, layouts, stats) and the engine program.
func entryBytes(e *Compiled) []byte {
	r := e.Result()
	b, err := r.Circuit.AppendJSON(nil)
	if err != nil {
		panic(err)
	}
	b = fmt.Appendf(b, "\ninitial %v final %v stats %+v %q", r.InitialLayout, r.FinalLayout, r.Stats, e.CompileStats())
	cj := e.cj
	b = fmt.Appendf(b, "\nqubits %d toPhysical %v dur %v", cj.compactQubits, cj.toPhysical, cj.durPerShotUs)
	if cj.readout != nil {
		b = fmt.Appendf(b, "\nreadout %v", *cj.readout)
	}
	for _, s := range cj.noisy {
		b = fmt.Appendf(b, "\n%+v", s)
	}
	return b
}
