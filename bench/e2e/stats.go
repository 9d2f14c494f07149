package e2e

import (
	"math"
	"sort"
	"time"
)

// Percentile is the nearest-rank percentile of sorted (ascending) values:
// the smallest value with at least p percent of the samples at or below it.
// NaN for no samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median of values in any order; NaN for none.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance check of the benchmark uses.
func Quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Sample is one completed job as the client saw it.
type Sample struct {
	Start, End time.Duration // offsets from the start of the timed part
	OK         bool
}

func (s Sample) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// Midmean is the mean of the middle half of values: every value between the
// first and the third quartile by rank. jobs_per_s is the midmean over the
// one-second windows of a run: a second lost to something the steal counter
// does not show lands in the discarded quarters, while averaging the kept
// half keeps the result continuous where a plain median of small counts
// would be quantised. NaN for no values.
func Midmean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// Window is one slice of the timed part, about a second long, holding the
// jobs that completed in it.
type Window struct {
	Seconds  float64
	Jobs     int       // verified-ok jobs that completed in the window
	LatMs    []float64 // their latencies, ascending
	CPUMs    float64   // daemon CPU time spent in the window
	Dilation float64   // see Dilation: 1 when the hypervisor stole nothing
}

// Windows buckets the ok samples by completion time into the windows whose
// edges are bounds (ascending offsets from the start of the timed part;
// len(bounds)-1 windows). Samples outside every window are left out.
func Windows(samples []Sample, bounds []time.Duration) []Window {
	if len(bounds) < 2 {
		return nil
	}
	out := make([]Window, len(bounds)-1)
	for _, s := range samples {
		if !s.OK || s.End < bounds[0] {
			continue
		}
		// The first bound past the completion time closes its window.
		w := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.End }) - 1
		if w < len(out) {
			out[w].LatMs = append(out[w].LatMs, s.ms())
		}
	}
	for i := range out {
		sort.Float64s(out[i].LatMs)
		out[i].Seconds, out[i].Jobs, out[i].Dilation = (bounds[i+1] - bounds[i]).Seconds(), len(out[i].LatMs), 1
	}
	return out
}

// QuietTolerance is the dilation under which a window counts as quiet
// whatever the others read: two stolen ticks of a second's hundred.
const QuietTolerance = 1.02

// Quietest returns the windows the hypervisor stretched no more than the
// median window — or than QuietTolerance, so that a calm run keeps them all.
// Latency and CPU cost are read from these: a stolen millisecond lands on
// whichever job was running, so it moves the tail of a window, not its
// median, and no factor corrects that — but the windows that lost little
// show what the daemon does on its own.
func Quietest(wins []Window) []Window {
	d := make([]float64, len(wins))
	for i, w := range wins {
		d[i] = w.Dilation
	}
	cut := math.Max(Median(d), QuietTolerance)
	var q []Window
	for _, w := range wins {
		if w.Dilation <= cut {
			q = append(q, w)
		}
	}
	return q
}

// TheilSen is the slope of the Theil-Sen line through (x, y): the median of
// the slopes of every pair of points at least minGap apart in x. ok is false
// when fewer than ten pairs are: the points have no spread in x to speak of.
func TheilSen(x, y []float64, minGap float64) (slope float64, ok bool) {
	var slopes []float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if dx := x[j] - x[i]; math.Abs(dx) >= minGap {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	return Median(slopes), len(slopes) >= 10
}

// minDilationGap is how far apart two windows' dilations must be for their
// pair to vote on a slope: /proc/stat counts in hundredths of a second, so a
// smaller difference in a one-second window is rounding.
const minDilationGap = 0.02

// AtNoSteal extrapolates a per-window reading y to a dilation of 1: the
// Theil-Sen line through (dilation, y), its slope floored at zero because a
// stolen CPU never makes anything faster, read at 1. Where every window was
// about equally stretched there is no line, and the median of y is returned
// as it is. job_ms_p95 is read this way: on the reference box the 95th
// percentile of hybrid-loop grows by ~5 ms per unit of dilation from 1.7 ms,
// so between a run whose quietest windows lost 1 % and one whose lost 10 %
// nothing else would be left to see.
func AtNoSteal(dilation, y []float64) float64 {
	slope, ok := TheilSen(dilation, y, minDilationGap)
	if !ok || slope < 0 {
		slope = 0
	}
	at1 := make([]float64, len(y))
	for i := range y {
		at1[i] = y[i] - slope*(dilation[i]-1)
	}
	return Median(at1)
}

// Pool merges the latencies of wins, ascending.
func Pool(wins []Window) []float64 {
	var out []float64
	for _, w := range wins {
		out = append(out, w.LatMs...)
	}
	sort.Float64s(out)
	return out
}

// Latencies returns the sorted latencies in ms of the ok samples.
func Latencies(samples []Sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.OK {
			out = append(out, s.ms())
		}
	}
	sort.Float64s(out)
	return out
}
