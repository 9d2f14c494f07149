package quantum

import (
	"math"
	"math/rand"
	"testing"
)

// sum adds weights in index order.
func sum(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return total
}

func TestAliasTableEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"zero-total", []float64{0, 0, 0}},
		{"negative", []float64{-1, 2}},
		{"nan", []float64{1, math.NaN()}},
		{"infinite-total", []float64{1, math.Inf(1)}},
	}
	for _, tc := range cases {
		var tab AliasTable
		if err := tab.Init(tc.weights, sum(tc.weights)); err == nil {
			t.Errorf("%s: Init(%v) accepted a degenerate distribution", tc.name, tc.weights)
		}
	}

	var single, sparse AliasTable
	if err := single.Init([]float64{3.5}, 3.5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := single.Sample(rng); got != 0 {
			t.Fatalf("single-outcome sample = %d, want 0", got)
		}
	}

	// Zero-weight outcomes must never be drawn.
	if err := sparse.Init([]float64{0, 5, 0, 0, 1, 0}, 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if got := sparse.Sample(rng); got != 1 && got != 4 {
			t.Fatalf("sparse sample = %d, want only outcomes 1 or 4", got)
		}
	}
}

// TestAliasMatchesCumulative is the sampler-agreement satellite: over fixed
// seeds, the alias sampler and the cumulative binary search draw from the
// same distribution — bounded in empirical total-variation distance, since
// the two consume uniforms differently and can't match draw-for-draw.
func TestAliasMatchesCumulative(t *testing.T) {
	weights := make([]float64, 32)
	wrng := rand.New(rand.NewSource(7))
	for i := range weights {
		if i%3 == 0 {
			continue // leave holes in the support
		}
		weights[i] = wrng.Float64() * float64(1+i%5)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}

	const draws = 200000
	var alias AliasTable
	if err := alias.Init(weights, total); err != nil {
		t.Fatal(err)
	}
	aliasCounts := make([]int, len(weights))
	arng := rand.New(rand.NewSource(11))
	for i := 0; i < draws; i++ {
		aliasCounts[alias.Sample(arng)]++
	}

	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	cumCounts := make([]int, len(weights))
	crng := rand.New(rand.NewSource(12))
	for i := 0; i < draws; i++ {
		cumCounts[sampleCumulative(cum, acc, crng)]++
	}

	tv := 0.0
	for i := range weights {
		tv += math.Abs(float64(aliasCounts[i])-float64(cumCounts[i])) / (2 * draws)
		// Both samplers must also match the exact distribution.
		p := weights[i] / total
		if diff := math.Abs(float64(aliasCounts[i])/draws - p); diff > 0.01 {
			t.Errorf("outcome %d: alias frequency off exact probability by %.4f", i, diff)
		}
		if weights[i] == 0 && (aliasCounts[i] != 0 || cumCounts[i] != 0) {
			t.Errorf("outcome %d has zero weight but was drawn (alias %d, cumulative %d)",
				i, aliasCounts[i], cumCounts[i])
		}
	}
	if tv > 0.02 {
		t.Errorf("alias vs cumulative empirical total-variation distance = %.4f, want <= 0.02", tv)
	}
}

func TestAliasInitReusesBuffers(t *testing.T) {
	var tab AliasTable
	if err := tab.Init([]float64{1, 2, 3, 4}, 10); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if allocs := testing.AllocsPerRun(100, func() { tab.Sample(rng) }); allocs != 0 {
		t.Errorf("Sample allocates %.1f times per draw, want 0", allocs)
	}
	w := []float64{4, 3, 2, 1}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tab.Init(w, 10); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("same-size Init allocates %.1f times per rebuild, want 0", allocs)
	}
}

// TestSampleBitstringsAliasAgreesWithSingleDraws pins the bulk path against
// the single-draw linear walk at the state level: both methods sample the
// same state distribution (chi-square would be overkill; a generous
// per-outcome frequency bound over 40k draws is deterministic and tight
// enough to catch a mis-built table).
func TestSampleBitstringsAliasAgreesWithSingleDraws(t *testing.T) {
	st := MustNewState(3)
	// A ragged superposition over all 8 outcomes.
	for _, op := range []struct {
		q     int
		theta float64
	}{{0, 0.4}, {1, 1.1}, {2, 2.3}} {
		if err := st.Apply1Q(op.q, RY(op.theta)); err != nil {
			t.Fatal(err)
		}
	}
	const draws = 40000
	bulk := st.SampleBitstrings(draws, rand.New(rand.NewSource(21))) // alias path (>= aliasMinShots)
	single := make([]int, draws)
	srng := rand.New(rand.NewSource(22))
	for i := range single {
		single[i] = st.SampleBitstring(srng)
	}
	hb, hs := Histogram(bulk), Histogram(single)
	for o := 0; o < st.Dim(); o++ {
		fb := float64(hb[o]) / draws
		fs := float64(hs[o]) / draws
		if math.Abs(fb-fs) > 0.015 {
			t.Errorf("outcome %d: bulk frequency %.4f vs single-draw %.4f", o, fb, fs)
		}
		if p := st.Probability(o); math.Abs(fb-p) > 0.015 {
			t.Errorf("outcome %d: bulk frequency %.4f vs exact probability %.4f", o, fb, p)
		}
	}
}

func TestSampleBitstringsIntoAllocFree(t *testing.T) {
	st, err := AcquireState(4)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseState(st)
	if err := st.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	dst := make([]int, 64)
	dst = st.SampleBitstringsInto(dst, 64, rng) // warm the scratch buffers
	if allocs := testing.AllocsPerRun(50, func() {
		dst = st.SampleBitstringsInto(dst, 64, rng)
	}); allocs != 0 {
		t.Errorf("SampleBitstringsInto allocates %.1f times per call on a warm state, want 0", allocs)
	}
}
