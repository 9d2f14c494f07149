// Package trace records lightweight per-job span trees: every job carries
// one Trace from submission to its terminal state, and each pipeline stage
// (queue-wait, routing, compile, execute, simulate) claims a span with
// monotonic start/end times and a handful of string attributes.
//
// The design goal is zero locks on the hot path. A Trace preallocates a
// fixed slab of spans; StartChild claims a slot with a single atomic
// counter increment, writes the span fields, and publishes them with a
// release store on the span's state word. Readers (the /trace endpoint,
// the waterfall renderer) take a consistent snapshot by acquire-loading
// each state word — a span is either invisible, started, or ended; torn
// reads are impossible and no mutex is ever taken. When the slab fills,
// further spans degrade to no-ops and a dropped counter records the loss.
//
// Traces are intentionally not free-listed: a terminal job's trace stays
// reachable from the retention ring until evicted, and in-flight snapshot
// readers may hold the pointer past eviction, so recycling would race.
// The GC reclaims evicted traces once the last reader drops them.
package trace

import (
	"context"
	"sync/atomic"
	"time"
)

// enabled is the global kill-switch. Tracing is on by default; benches
// flip it off to measure overhead and prove the always-on cost is small.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns trace collection on or off globally. With tracing off,
// New returns nil and every Span/Trace method is a nil-safe no-op, so the
// instrumented call sites pay only a pointer nil-check.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether trace collection is currently on.
func Enabled() bool { return enabled.Load() }

const (
	// maxSpans bounds the slab: a fleet job's deepest timeline today is
	// root + route/park/on-device legs + queue-wait/compile/execute +
	// engine-compile/simulate/pace (~10 spans), plus headroom for a few
	// migration retries (+2 spans per leg). Kept tight on purpose — the
	// whole slab is allocated and zeroed per job, and its size is the
	// dominant tracing cost against the ≤5% throughput budget.
	maxSpans = 24
	// maxAttrs bounds per-span attributes; the widest span today carries 5
	// (root: job_id, user, request_id, outcome, error) — one slot spare.
	maxAttrs = 6
)

// span states, published via release-store on span.state.
const (
	spanFree    uint32 = 0 // slot not yet committed
	spanStarted uint32 = 1 // name/parent/start visible
	spanEnded   uint32 = 2 // end time and end-attrs visible
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: itoa(int64(v))} }

// Int64 builds an integer attribute from an int64.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: itoa(v)} }

// itoa avoids strconv to keep the hot path allocation-free for small ints.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// attrCell is one attribute slot. Cells are claimed with an atomic counter
// and individually published via ready, so two goroutines annotating the
// same span concurrently (e.g. the HTTP handler stamping request_id while
// the worker stamps outcome) never tear each other's writes. Key and value
// are packed into one NUL-separated string: the whole slab is allocated
// per job, so every field here is paid maxSpans*maxAttrs times.
type attrCell struct {
	kv    string // key + "\x00" + value
	ready atomic.Uint32
}

// span is one slab entry. name/parent/start are written once by the
// claiming goroutine before the release-store on state; readers
// acquire-load state first. end is atomic because End may race with
// snapshot readers (and a second, losing End call).
type span struct {
	name      string
	parent    int32 // slab index of parent, -1 for root
	start     int64 // ns since trace epoch (monotonic)
	end       atomic.Int64
	attrs     [maxAttrs]attrCell
	attrClaim atomic.Int32
	state     atomic.Uint32
}

func (s *span) addAttrs(attrs []Attr) {
	for _, a := range attrs {
		i := s.attrClaim.Add(1) - 1
		if int(i) >= maxAttrs {
			return
		}
		s.attrs[i].kv = a.Key + "\x00" + a.Value
		s.attrs[i].ready.Store(1)
	}
}

// Trace is one job's span tree. Safe for concurrent use: span slots are
// claimed atomically and snapshots never block writers.
type Trace struct {
	epoch   time.Time // monotonic base for all span timestamps
	spans   [maxSpans]span
	claim   atomic.Int32
	dropped atomic.Uint64
}

// New allocates a trace with a root span of the given name, or nil when
// tracing is globally disabled. All methods on a nil *Trace are no-ops.
func New(rootName string, attrs ...Attr) *Trace {
	if !enabled.Load() {
		return nil
	}
	t := &Trace{epoch: time.Now()}
	t.claim.Store(1)
	root := &t.spans[0]
	root.name = rootName
	root.parent = -1
	root.start = 0
	root.addAttrs(attrs)
	root.state.Store(spanStarted)
	return t
}

// Root returns the root span handle, or nil for a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, idx: 0}
}

// Span is a handle to one slab entry. The zero value and nil are inert.
type Span struct {
	t   *Trace
	idx int32
}

// Trace returns the trace this span belongs to (nil for a nil span) —
// how a layer handed only a parent span reaches the tree for retention.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.t
}

// StartChild claims a new span under s. On slab exhaustion it counts a
// drop and returns nil, which End/SetAttr/StartChild all tolerate, so
// call sites need no branch between start and end.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	t := s.t
	i := t.claim.Add(1) - 1
	if int(i) >= maxSpans {
		t.dropped.Add(1)
		return nil
	}
	sp := &t.spans[i]
	sp.name = name
	sp.parent = s.idx
	sp.start = int64(time.Since(t.epoch))
	sp.addAttrs(attrs)
	sp.state.Store(spanStarted)
	return &Span{t: t, idx: i}
}

// End marks the span finished, optionally attaching final attributes.
// Idempotent: the first caller to land the end time wins; later End
// calls only contribute their attrs. The end store precedes the state
// flip, so any reader that observes spanEnded also sees the end time.
func (s *Span) End(attrs ...Attr) {
	if s == nil || s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	if len(attrs) > 0 {
		sp.addAttrs(attrs)
	}
	end := int64(time.Since(s.t.epoch))
	if end == 0 {
		end = 1 // keep 0 reserved as "not ended"
	}
	sp.end.CompareAndSwap(0, end)
	sp.state.CompareAndSwap(spanStarted, spanEnded)
}

// SetAttr attaches an attribute to a live or ended span.
func (s *Span) SetAttr(k, v string) {
	if s == nil || s.t == nil {
		return
	}
	s.t.spans[s.idx].addAttrs([]Attr{{Key: k, Value: v}})
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext extracts the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan begins a child of the span carried in ctx and returns both a
// context carrying the new span and its handle. With no span in ctx (or
// tracing off) it returns ctx unchanged and a nil handle.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name, attrs...)
	if child == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, child), child
}
