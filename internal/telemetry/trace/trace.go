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
	"strconv"
	"sync/atomic"
	"time"
)

// enabled is the global kill-switch. Tracing is on by default; benches
// flip it off to measure overhead and prove the always-on cost is small.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns trace collection on or off globally. With tracing off,
// New returns nil, whose Root is the inert zero Span, so the instrumented
// call sites pay only a pointer nil-check.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether trace collection is currently on.
func Enabled() bool { return enabled.Load() }

const (
	// maxSpans bounds the slab. A fleet job records 7 spans — the root,
	// queue-wait, route, on-device, compile, execute, simulate — and 8 when
	// the device paces; each failover leg adds its own queue-wait, route,
	// on-device, compile and execute. 16 holds a paced job, its federation
	// fed-forward leg and the five handler-side stages still to be traced
	// (decode, admit, journal, settle, respond). The whole slab is
	// allocated, zeroed and scanned per job, so it is kept to what a job
	// records; past it, spans are dropped and counted.
	maxSpans = 16
	// maxAttrs bounds one span's attributes; the widest today carry 5 (the
	// root: job_id, user, request_id, outcome, error; simulate's counters).
	maxAttrs = 6
	// maxCells bounds the whole trace's attributes. Cells are pooled per
	// trace, not held per span: most spans carry 0–2, a done fleet job
	// stamps 18 in all and a failover leg 10 more. 36 keep a job's last
	// attribute, the root's outcome, through two failovers, by which time
	// the slab drops the final leg's simulate span.
	maxCells = 36
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

// itoa formats v; strconv hands back 0..99 without allocating.
func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// attrCell is one attribute slot of the trace's pool. Cells are claimed with
// an atomic counter and individually published via ready, so two goroutines
// annotating the same span concurrently (e.g. the HTTP handler stamping
// request_id while the worker stamps outcome) never tear each other's
// writes. The cell keeps the attribute's own strings: stamping one copies
// no bytes and allocates nothing.
type attrCell struct {
	key, value string
	span       int32 // slab index of the span the attribute belongs to
	ready      atomic.Uint32
}

// span is one slab entry. name/parent/start are written once by the
// claiming goroutine before the release-store on state; readers
// acquire-load state first. end is atomic because End may race with
// snapshot readers (and a second, losing End call). attrs counts the
// attributes the span claimed, kept ones and ones past maxAttrs alike.
type span struct {
	name   string
	parent int32 // slab index of parent, -1 for root
	attrs  atomic.Int32
	start  int64 // ns since trace epoch (monotonic)
	end    atomic.Int64
	state  atomic.Uint32
}

// addAttrs stamps attrs on span i: each takes one of the span's maxAttrs
// and one cell of the trace's pool, and is dropped when either is spent.
func (t *Trace) addAttrs(i int32, attrs []Attr) {
	sp := &t.spans[i]
	for _, a := range attrs {
		if sp.attrs.Add(1) > maxAttrs {
			return
		}
		c := t.cellClaim.Add(1) - 1
		if int(c) >= maxCells {
			return
		}
		cell := &t.cells[c]
		cell.key, cell.value, cell.span = a.Key, a.Value, i
		cell.ready.Store(1)
	}
}

// Trace is one job's span tree. Safe for concurrent use: span slots and
// attribute cells are claimed atomically and snapshots never block writers.
type Trace struct {
	epoch     time.Time // monotonic base for all span timestamps
	spans     [maxSpans]span
	cells     [maxCells]attrCell
	claim     atomic.Int32
	cellClaim atomic.Int32
	dropped   atomic.Uint64
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
	t.addAttrs(0, attrs)
	root.state.Store(spanStarted)
	return t
}

// Root returns the root span handle, the zero Span for a nil trace.
func (t *Trace) Root() Span {
	return Span{t: t}
}

// Span is a value handle to one slab entry. The zero Span is inert: every
// method on it is a no-op and its children are zero Spans too.
type Span struct {
	t   *Trace
	idx int32
}

// StartChild claims a new span under s. On slab exhaustion it counts a
// drop and returns the zero Span, which End/SetAttr/StartChild all
// tolerate, so call sites need no branch between start and end.
func (s Span) StartChild(name string, attrs ...Attr) Span {
	t := s.t
	if t == nil {
		return Span{}
	}
	i := t.claim.Add(1) - 1
	if int(i) >= maxSpans {
		t.dropped.Add(1)
		return Span{}
	}
	sp := &t.spans[i]
	sp.name = name
	sp.parent = s.idx
	sp.start = int64(time.Since(t.epoch))
	t.addAttrs(i, attrs)
	sp.state.Store(spanStarted)
	return Span{t: t, idx: i}
}

// End marks the span finished, optionally attaching final attributes.
// Idempotent: the first caller to land the end time wins; later End
// calls only contribute their attrs. The end store precedes the state
// flip, so any reader that observes spanEnded also sees the end time.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	if len(attrs) > 0 {
		s.t.addAttrs(s.idx, attrs)
	}
	end := int64(time.Since(s.t.epoch))
	if end == 0 {
		end = 1 // keep 0 reserved as "not ended"
	}
	sp.end.CompareAndSwap(0, end)
	sp.state.CompareAndSwap(spanStarted, spanEnded)
}

// SetAttr attaches an attribute to a live or ended span.
func (s Span) SetAttr(k, v string) {
	if s.t == nil {
		return
	}
	s.t.addAttrs(s.idx, []Attr{{Key: k, Value: v}})
}
