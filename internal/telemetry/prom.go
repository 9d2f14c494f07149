package telemetry

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// PromWriter renders counters, gauges and histogram snapshots in the
// Prometheus text exposition format (version 0.0.4) without any external
// dependency: one `# HELP`/`# TYPE` header per family, then one sample
// line per label set. Families render in first-seen order so the output
// is deterministic for golden-style checks.
type PromWriter struct {
	order    []string
	families map[string]*promFamily
}

type promFamily struct {
	help  string
	kind  string // "counter", "gauge", "histogram"
	lines []byte // the sample lines, each ending in a newline
}

// NewPromWriter returns an empty exposition builder.
func NewPromWriter() *PromWriter {
	return &PromWriter{families: make(map[string]*promFamily)}
}

func (w *PromWriter) family(name, help, kind string) *promFamily {
	f, ok := w.families[name]
	if !ok {
		f = &promFamily{help: help, kind: kind}
		w.families[name] = f
		w.order = append(w.order, name)
	}
	return f
}

// Labels is an ordered list of label key/value pairs. Order is preserved
// verbatim so output stays deterministic.
type Labels [][2]string

// appendPairs appends the pairs as k="v",k="v", values escaped.
func (ls Labels) appendPairs(b []byte) []byte {
	for i, kv := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, kv[0]...), `="`...)
		b = append(append(b, escapeLabel(kv[1])...), '"')
	}
	return b
}

// labelEscaper escapes a label value. A Replacer is safe for concurrent use,
// and one returns a value with nothing to escape as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// appendValue appends a sample value: an integral one below 1e15 in
// decimal, any other in %g's shortest form.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.AppendInt(b, int64(v), 10)
	default:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
}

// line starts a sample line after f's lines: name, suffix, the labels
// (none: no braces) and the space before the value.
func (f *promFamily) line(name, suffix string, labels Labels) []byte {
	b := append(append(f.lines, name...), suffix...)
	if len(labels) > 0 {
		b = append(labels.appendPairs(append(b, '{')), '}')
	}
	return append(b, ' ')
}

// Counter adds one cumulative counter sample to the named family.
func (w *PromWriter) Counter(name, help string, labels Labels, value float64) {
	f := w.family(name, help, "counter")
	f.lines = append(appendValue(f.line(name, "", labels), value), '\n')
}

// Gauge adds one gauge sample to the named family.
func (w *PromWriter) Gauge(name, help string, labels Labels, value float64) {
	f := w.family(name, help, "gauge")
	f.lines = append(appendValue(f.line(name, "", labels), value), '\n')
}

// Histogram renders a HistogramSnapshot as cumulative le-buckets plus
// _sum and _count, matching Prometheus histogram semantics. Snapshot
// Counts are per-bucket (len(Bounds)+1 with the overflow bucket last);
// this accumulates them into the required cumulative form.
func (w *PromWriter) Histogram(name, help string, labels Labels, h HistogramSnapshot) {
	f := w.family(name, help, "histogram")
	bucket := func(le float64, n uint64) {
		b := append(append(f.lines, name...), "_bucket{"...)
		if len(labels) > 0 {
			b = append(labels.appendPairs(b), ',')
		}
		b = append(appendValue(append(b, `le="`...), le), `"} `...)
		f.lines = append(strconv.AppendUint(b, n, 10), '\n')
	}
	cum := uint64(0)
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		bucket(bound, cum)
	}
	bucket(math.Inf(1), h.Count)
	f.lines = append(appendValue(f.line(name, "_sum", labels), h.Sum), '\n')
	f.lines = append(strconv.AppendUint(f.line(name, "_count", labels), h.Count, 10), '\n')
}

// WriteTo emits the full exposition. Families appear in first-seen order;
// samples within a family in insertion order.
func (w *PromWriter) WriteTo(out io.Writer) (int64, error) {
	n := 0
	for _, f := range w.families {
		n += len(f.lines) + len(f.help) + 64
	}
	b := make([]byte, 0, n)
	for _, name := range w.order {
		f := w.families[name]
		if f.help != "" {
			b = append(append(append(append(b, "# HELP "...), name...), ' '), f.help...)
			b = append(b, '\n')
		}
		b = append(append(append(append(b, "# TYPE "...), name...), ' '), f.kind...)
		b = append(append(b, '\n'), f.lines...)
	}
	m, err := out.Write(b)
	return int64(m), err
}
