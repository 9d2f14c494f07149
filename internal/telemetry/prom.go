package telemetry

import (
	"fmt"
	"io"
	"math"
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
	lines []string
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

func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value. A Replacer is safe for concurrent use,
// and one returns a value with nothing to escape as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Counter adds one cumulative counter sample to the named family.
func (w *PromWriter) Counter(name, help string, labels Labels, value float64) {
	f := w.family(name, help, "counter")
	f.lines = append(f.lines, fmt.Sprintf("%s%s %s", name, labels, formatValue(value)))
}

// Gauge adds one gauge sample to the named family.
func (w *PromWriter) Gauge(name, help string, labels Labels, value float64) {
	f := w.family(name, help, "gauge")
	f.lines = append(f.lines, fmt.Sprintf("%s%s %s", name, labels, formatValue(value)))
}

// Histogram renders a HistogramSnapshot as cumulative le-buckets plus
// _sum and _count, matching Prometheus histogram semantics. Snapshot
// Counts are per-bucket (len(Bounds)+1 with the overflow bucket last);
// this accumulates them into the required cumulative form.
func (w *PromWriter) Histogram(name, help string, labels Labels, h HistogramSnapshot) {
	f := w.family(name, help, "histogram")
	cum := uint64(0)
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		ls := append(append(Labels{}, labels...), [2]string{"le", formatValue(bound)})
		f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d", name, ls, cum))
	}
	ls := append(append(Labels{}, labels...), [2]string{"le", "+Inf"})
	f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d", name, ls, h.Count))
	f.lines = append(f.lines, fmt.Sprintf("%s_sum%s %s", name, labels, formatValue(h.Sum)))
	f.lines = append(f.lines, fmt.Sprintf("%s_count%s %d", name, labels, h.Count))
}

// WriteTo emits the full exposition. Families appear in first-seen order;
// samples within a family in insertion order.
func (w *PromWriter) WriteTo(out io.Writer) (int64, error) {
	var b strings.Builder
	for _, name := range w.order {
		f := w.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		for _, l := range f.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(out, b.String())
	return int64(n), err
}
