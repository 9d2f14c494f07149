package quantum

import (
	"fmt"
	"math"
	"math/rand"
)

// AliasTable is a Walker/Vose alias sampler over a discrete weight vector:
// O(n) construction, O(1) per draw. It replaces the per-shot binary search
// over a cumulative table on bulk-sampling paths — for a leaf of the
// shot-branching tree holding k shots, sampling costs k draws flat instead
// of k·log(dim) probes.
type AliasTable struct {
	prob  []float64
	alias []int32
	// small/large are the construction worklists, retained so Init reuses
	// their capacity: a pooled state's sampler rebuilds allocation-free.
	small, large []int32
}

// Init (re)builds the table over weights, whose sum is total, reusing the
// table's buffers when their capacity suffices. The caller has summed the
// weights (the sampler's probability pass does), so Init does not sum them
// again. It fails on an empty vector, on a non-positive or non-finite total,
// and on negative or NaN entries — a zero distribution has no sampling
// semantics, so callers must handle it explicitly; a failed Init leaves the
// table to be rebuilt.
func (t *AliasTable) Init(weights []float64, total float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("quantum: alias table needs at least one weight")
	}
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("quantum: alias weights sum to %v, want positive and finite", total)
	}
	if cap(t.prob) < n {
		t.prob = make([]float64, n)
		t.alias = make([]int32, n)
		t.small = make([]int32, 0, n)
		t.large = make([]int32, 0, n)
	}
	t.prob = t.prob[:n]
	t.alias = t.alias[:n]
	small, large := t.small[:0], t.large[:0]

	// Vose's method: scale weights so the mean bucket holds probability 1,
	// then pair each under-full bucket with an over-full donor.
	scale := float64(n) / total
	for i, w := range weights {
		if !(w >= 0) {
			return fmt.Errorf("quantum: alias weight %d is %v", i, w)
		}
		p := w * scale
		t.prob[i] = p
		t.alias[i] = int32(i)
		if p < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.alias[s] = l
		t.prob[l] -= 1 - t.prob[s] // the donor gives up the bucket's slack
		if t.prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers on either list are within rounding of exactly full.
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	t.small, t.large = small[:0], large[:0]
	return nil
}

// Len returns the number of outcomes.
func (t *AliasTable) Len() int { return len(t.prob) }

// Sample draws one outcome index, consuming exactly one rng draw: the
// integer part of u·n picks the bucket, the fractional part decides between
// the bucket's own outcome and its alias.
func (t *AliasTable) Sample(rng *rand.Rand) int {
	u := float64(rng.Float64() * float64(len(t.prob))) // rounded: u-i must not fuse
	i := int(u)
	if i >= len(t.prob) {
		i = len(t.prob) - 1 // fp guard; Float64 < 1 makes this unreachable
	}
	if u-float64(i) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
