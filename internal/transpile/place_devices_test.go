package transpile_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/transpile"
)

// commissionedTarget is the target the daemon compiles against after
// `qhpcd -seed N`: the 4x5 device with that seed's live calibration.
func commissionedTarget(t *testing.T, seed int64) *transpile.Target {
	t.Helper()
	c, err := core.New(core.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sites := []facility.Site{
		{Name: "ground-floor", Env: facility.NoisyUrban(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 300, FluorescentM: 4},
		{Name: "basement", Env: facility.Quiet(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 800, FluorescentM: 6},
	}
	if _, err := c.CommissionFast(sites, facility.SurveyConfig{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return c.QDMI.Target()
}

// chainBreaks counts consecutive layout entries that share no coupler: each
// is a SWAP chain the router must add to a line-structured circuit.
func chainBreaks(t *transpile.Target, l transpile.Layout) int {
	n := 0
	for i := 0; i+1 < len(l); i++ {
		if !t.Connected(l[i], l[i+1]) {
			n++
		}
	}
	return n
}

// parentBreaks[seed-1][k-2] is the chain-break count of the greedy walk at
// this change's parent commit, on the commissioned device of that seed: 54
// of the 152 layouts were broken, every width k >= 7 on the seed-1 device
// the benchmark's daemon starts with.
var parentBreaks = [8][19]int{
	{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2},
	{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2},
	{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
}

// TestPlaceFindsTheChainOnCommissionedDevices: the 4x5 grid holds a k-chain
// for every k <= 20, so on every commissioned device and every width the
// layout has no chain break (all 152 cells; none is left to the fallback),
// it is the parent's layout wherever the parent's was unbroken, and a cold
// search stays inside its budget.
func TestPlaceFindsTheChainOnCommissionedDevices(t *testing.T) {
	worst := 0
	for seed := int64(1); seed <= 8; seed++ {
		tgt := commissionedTarget(t, seed)
		for k := 2; k <= 20; k++ {
			cell := fmt.Sprintf("seed %d k %d", seed, k)
			parent, err := transpile.ParentWalk(k, tgt)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if got, want := chainBreaks(tgt, parent), parentBreaks[seed-1][k-2]; got != want {
				t.Fatalf("%s: the reference walk has %d chain breaks, the parent commit had %d", cell, got, want)
			}
			l, tried, err := transpile.SearchChain(k, tgt)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if n := chainBreaks(tgt, l); n != 0 {
				t.Errorf("%s: layout %v has %d chain breaks (parent: %d)", cell, l, n, parentBreaks[seed-1][k-2])
			}
			if seen := l.Inverse(tgt.NumQubits); len(l) != k || countUsed(seen) != k {
				t.Errorf("%s: layout %v is not %d distinct qubits", cell, l, k)
			}
			if parentBreaks[seed-1][k-2] == 0 {
				if !reflect.DeepEqual(l, parent) {
					t.Errorf("%s: layout %v, the parent's unbroken layout was %v", cell, l, parent)
				}
				if tried != k-2 {
					t.Errorf("%s: %d candidates tried, the first descent alone is %d", cell, tried, k-2)
				}
			}
			if tried > transpile.PlaceBudget {
				t.Errorf("%s: %d candidates tried, budget %d", cell, tried, transpile.PlaceBudget)
			}
			if tried > worst {
				worst = tried
			}
			placed, err := transpile.Place(k, tgt, transpile.PlaceFidelityAware)
			if err != nil || !reflect.DeepEqual(placed, l) {
				t.Errorf("%s: Place returned %v, %v; the search %v", cell, placed, err, l)
			}
		}
	}
	// Measured 1413 (seed 8, k = 20); the hard bound is PlaceBudget.
	if worst > 2048 {
		t.Errorf("worst cold search tried %d candidates, want <= 2048", worst)
	}
}

func countUsed(inv []int) int {
	n := 0
	for _, logical := range inv {
		if logical >= 0 {
			n++
		}
	}
	return n
}

// TestPlaceIsMemoisedPerTarget: repeated and concurrent calls on one Target
// agree, and a caller scribbling on its layout does not reach the next one.
func TestPlaceIsMemoisedPerTarget(t *testing.T) {
	tgt := commissionedTarget(t, 1)
	want, _, err := transpile.SearchChain(12, commissionedTarget(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]transpile.Layout, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := transpile.Place(12, tgt, transpile.PlaceFidelityAware)
			if err != nil {
				t.Error(err)
			}
			got[i] = l
		}(i)
	}
	wg.Wait()
	for i, l := range got {
		if !reflect.DeepEqual(l, want) {
			t.Errorf("concurrent call %d: %v, want %v", i, l, want)
		}
	}
	for i := range got[0] {
		got[0][i] = -1
	}
	for _, strategy := range []transpile.PlacementStrategy{transpile.PlaceFidelityAware, transpile.PlaceStatic} {
		first, err := transpile.Place(12, tgt, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if strategy == transpile.PlaceFidelityAware && !reflect.DeepEqual(first, want) {
			t.Errorf("after a caller overwrote its layout: %v, want %v", first, want)
		}
		kept := append(transpile.Layout(nil), first...)
		first[0] = -1
		if again, _ := transpile.Place(12, tgt, strategy); !reflect.DeepEqual(again, kept) {
			t.Errorf("%v: second call %v, first %v", strategy, again, kept)
		}
	}
}

// TestPlaceFallsBackOnTheParentsWalk: where no k-chain exists — a star, a T,
// and a grid whose two missing corners leave 8 qubits of one colour and 10
// of the other, so that the search runs out of budget on near misses —
// the layout is the parent's, chain breaks and all, within the budget.
func TestPlaceFallsBackOnTheParentsWalk(t *testing.T) {
	star := &transpile.Target{NumQubits: 6, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}}
	tee := &transpile.Target{NumQubits: 7, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {2, 5}, {5, 6}}}
	holed := commissionedTarget(t, 2)
	var edges [][2]int
	for _, e := range holed.Edges {
		if e[0] != 0 && e[0] != 2 && e[1] != 2 {
			edges = append(edges, e)
		}
	}
	holed = &transpile.Target{NumQubits: 20, Edges: edges, F1Q: holed.F1Q, FRead: holed.FRead, FCZ: holed.FCZ}
	for _, tc := range []struct {
		name      string
		tgt       *transpile.Target
		k         int
		exhausted bool
	}{
		{"star", star, 4, false}, {"star", star, 6, false},
		{"T", tee, 6, false}, {"T", tee, 7, false},
		{"holed grid", holed, 18, true},
	} {
		parent, err := transpile.ParentWalk(tc.k, tc.tgt)
		if err != nil {
			t.Fatalf("%s k %d: %v", tc.name, tc.k, err)
		}
		if chainBreaks(tc.tgt, parent) == 0 {
			t.Fatalf("%s k %d: the parent's layout %v is a chain; the case tests nothing", tc.name, tc.k, parent)
		}
		l, tried, err := transpile.SearchChain(tc.k, tc.tgt)
		if err != nil {
			t.Fatalf("%s k %d: %v", tc.name, tc.k, err)
		}
		if !reflect.DeepEqual(l, parent) {
			t.Errorf("%s k %d: layout %v, the parent's walk gives %v", tc.name, tc.k, l, parent)
		}
		// A seed edge whose subtree empties early hands back the rest of
		// its share, so "ran out" reads as most of the budget, not all.
		if tried > transpile.PlaceBudget || tc.exhausted != (tried > transpile.PlaceBudget/2) {
			t.Errorf("%s k %d: %d candidates tried, budget %d (ran out: want %v)", tc.name, tc.k, tried, transpile.PlaceBudget, tc.exhausted)
		}
	}
	// A region smaller than k is an error, as it was.
	if _, err := transpile.Place(5, &transpile.Target{NumQubits: 6, Edges: [][2]int{{0, 1}, {1, 2}, {3, 4}}}, transpile.PlaceFidelityAware); err == nil {
		t.Error("placing 5 qubits on a 3-qubit region succeeded")
	}
}

// TestPlaceNeverWorseThanTheParentsWalk: over random sparse graphs — trees
// with a few chords, uniform fidelities (every score ties) and drifted ones —
// the layout is the parent's wherever the parent's was a chain or the search
// found none, and otherwise a chain.
func TestPlaceNeverWorseThanTheParentsWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fellBack := 0
	for g := 0; g < 400; g++ {
		n := 4 + rng.Intn(12)
		tgt := &transpile.Target{NumQubits: n}
		have := map[[2]int]bool{}
		for q := 1; q < n; q++ {
			have[[2]int{rng.Intn(q), q}] = true
		}
		for extra := rng.Intn(4); extra > 0; extra-- {
			if a, b := rng.Intn(n), rng.Intn(n); a < b {
				have[[2]int{a, b}] = true
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if have[[2]int{a, b}] {
					tgt.Edges = append(tgt.Edges, [2]int{a, b})
				}
			}
		}
		if g%2 == 1 {
			tgt.F1Q, tgt.FRead, tgt.FCZ = make([]float64, n), make([]float64, n), map[[2]int]float64{}
			for q := 0; q < n; q++ {
				tgt.F1Q[q], tgt.FRead[q] = 0.999-0.004*rng.Float64(), 0.98-0.03*rng.Float64()
			}
			for _, e := range tgt.Edges {
				tgt.FCZ[e] = 0.99 - 0.03*rng.Float64()
			}
		}
		for k := 1; k <= n; k++ {
			parent, err := transpile.ParentWalk(k, tgt)
			if err != nil {
				t.Fatalf("graph %d k %d: %v", g, k, err)
			}
			l, _, err := transpile.SearchChain(k, tgt)
			if err != nil {
				t.Fatalf("graph %d k %d: %v", g, k, err)
			}
			pb, lb := chainBreaks(tgt, parent), chainBreaks(tgt, l)
			if lb > 0 {
				fellBack++
			}
			if (pb == 0 || lb > 0) && !reflect.DeepEqual(l, parent) {
				t.Fatalf("graph %d %v k %d: layout %v (%d breaks), the parent's walk gives %v (%d)", g, tgt.Edges, k, l, lb, parent, pb)
			}
		}
	}
	if fellBack < 100 {
		t.Errorf("only %d of the cells fell back on the greedy walk; the graphs test little", fellBack)
	}
}
