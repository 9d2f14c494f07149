package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestPromWriterBasics(t *testing.T) {
	w := NewPromWriter()
	w.Counter("qhpc_jobs_total", "Jobs submitted.", nil, 42)
	w.Counter("qhpc_jobs_total", "", Labels{{"device", "d0"}}, 7)
	w.Gauge("qhpc_queue_depth", "Current depth.", Labels{{"device", `a"b\c`}}, 3)

	var b strings.Builder
	if _, err := w.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, s := range []string{
		"# HELP qhpc_jobs_total Jobs submitted.",
		"# TYPE qhpc_jobs_total counter",
		"qhpc_jobs_total 42",
		`qhpc_jobs_total{device="d0"} 7`,
		"# TYPE qhpc_queue_depth gauge",
		`qhpc_queue_depth{device="a\"b\\c"} 3`,
	} {
		if !strings.Contains(out, s+"\n") {
			t.Errorf("missing line %q in:\n%s", s, out)
		}
	}
	// HELP/TYPE must appear exactly once per family.
	if n := strings.Count(out, "# TYPE qhpc_jobs_total counter"); n != 1 {
		t.Errorf("TYPE header appears %d times", n)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	w := NewPromWriter()
	w.Histogram("qhpc_latency_ms", "Latency.", Labels{{"stage", "exec"}}, h.Snapshot())
	var b strings.Builder
	w.WriteTo(&b)
	out := b.String()
	for _, s := range []string{
		`qhpc_latency_ms_bucket{stage="exec",le="1"} 1`,
		`qhpc_latency_ms_bucket{stage="exec",le="2"} 2`,
		`qhpc_latency_ms_bucket{stage="exec",le="4"} 3`,
		`qhpc_latency_ms_bucket{stage="exec",le="+Inf"} 4`,
		`qhpc_latency_ms_sum{stage="exec"} 105`,
		`qhpc_latency_ms_count{stage="exec"} 4`,
	} {
		if !strings.Contains(out, s+"\n") {
			t.Errorf("missing %q in:\n%s", s, out)
		}
	}
}

// fmtLine is a sample line as fmt writes it: the reference the appending
// writer is held to.
func fmtLine(name string, ls Labels, value string) string {
	var lb strings.Builder
	for i, kv := range ls {
		if i == 0 {
			lb.WriteByte('{')
		} else {
			lb.WriteByte(',')
		}
		fmt.Fprintf(&lb, "%s=%q", kv[0], kv[1])
	}
	if len(ls) > 0 {
		lb.WriteByte('}')
	}
	return fmt.Sprintf("%s%s %s\n", name, lb.String(), value)
}

// TestPromWriterMatchesFmt: every sample line, histogram buckets included,
// is what fmt writes of it: values in %d below 1e15 when integral and %g
// otherwise, label values quoted with \\, \" and \n escaped.
func TestPromWriterMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{0, math.Copysign(0, -1), 1, -7, 1e15 - 1, 1e15, 1e21, 0.1, 2.5e-9, -3.75, math.Pi, math.Inf(1), math.Inf(-1), math.NaN()}
	fmtValue := func(v float64) string {
		switch {
		case math.IsInf(v, 1):
			return "+Inf"
		case math.IsInf(v, -1):
			return "-Inf"
		case math.IsNaN(v):
			return "NaN"
		case v == math.Trunc(v) && math.Abs(v) < 1e15:
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	label := []string{"", "d0", `a"b\c`, "two\nlines", "é"}
	w := NewPromWriter()
	var want strings.Builder
	want.WriteString("# HELP m_total Help.\n# TYPE m_total counter\n")
	var hist strings.Builder
	for i := 0; i < 300; i++ {
		var ls Labels
		for k := rng.Intn(3); k > 0; k-- {
			ls = append(ls, [2]string{fmt.Sprintf("k%d", k), label[rng.Intn(len(label))]})
		}
		v := values[rng.Intn(len(values))]
		if rng.Intn(2) == 0 {
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		w.Counter("m_total", "Help.", ls, v)
		want.WriteString(fmtLine("m_total", ls, fmtValue(v)))
		if i%50 == 0 {
			snap := HistogramSnapshot{Bounds: []float64{0.5, 1, 1e6}, Counts: []uint64{1, 2, 3, 4}, Count: 10, Sum: v}
			w.Histogram("h_ms", "", ls, snap)
			cum := uint64(0)
			for b, bound := range snap.Bounds {
				cum += snap.Counts[b]
				hist.WriteString(fmtLine("h_ms_bucket", append(append(Labels{}, ls...), [2]string{"le", fmtValue(bound)}), fmt.Sprint(cum)))
			}
			hist.WriteString(fmtLine("h_ms_bucket", append(append(Labels{}, ls...), [2]string{"le", "+Inf"}), "10"))
			hist.WriteString(fmtLine("h_ms_sum", ls, fmtValue(v)))
			hist.WriteString(fmtLine("h_ms_count", ls, "10"))
		}
	}
	want.WriteString("# TYPE h_ms histogram\n" + hist.String())
	var got strings.Builder
	if _, err := w.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		g, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range g {
			if i >= len(wl) || g[i] != wl[i] {
				t.Fatalf("line %d reads\n%s\nfmt writes\n%s", i, g[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("%d lines, fmt writes %d", len(g), len(wl))
	}
}
