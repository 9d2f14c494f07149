package trace

import "time"

// SpanSnapshot is one node of a rendered span tree. Times are relative to
// the trace root in microseconds so waterfalls line up without clock math.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	StartUs    float64           `json:"start_us"`
	DurationUs float64           `json:"duration_us"`
	InProgress bool              `json:"in_progress,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanSnapshot   `json:"children,omitempty"`
}

// Snapshot is a consistent point-in-time view of a whole trace.
type Snapshot struct {
	DurationUs   float64       `json:"duration_us"`
	Complete     bool          `json:"complete"`
	DroppedSpans uint64        `json:"dropped_spans,omitempty"`
	Root         *SpanSnapshot `json:"root"`
}

// Snapshot renders the span tree without blocking writers: it acquire-loads
// each span's state word and only reads slots already published. Spans still
// running are reported with duration up to now and in_progress set. Returns
// nil for a nil trace.
func (t *Trace) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	n := int(t.claim.Load())
	if n > maxSpans {
		n = maxSpans
	}
	now := int64(time.Since(t.epoch))
	nodes := make([]*SpanSnapshot, n)
	var root *SpanSnapshot
	complete := true
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		st := sp.state.Load()
		if st == spanFree {
			continue // slot claimed but not yet committed
		}
		node := &SpanSnapshot{
			Name:    sp.name,
			StartUs: float64(sp.start) / 1e3,
		}
		if end := sp.end.Load(); st == spanEnded && end != 0 {
			node.DurationUs = float64(end-sp.start) / 1e3
		} else {
			node.DurationUs = float64(now-sp.start) / 1e3
			node.InProgress = true
			complete = false
		}
		if node.DurationUs < 0 {
			node.DurationUs = 0
		}
		nodes[i] = node
		if sp.parent < 0 {
			root = node
		} else if p := nodes[sp.parent]; p != nil {
			// Slab order is claim order, so parents always precede children.
			p.Children = append(p.Children, node)
		}
	}
	if root == nil {
		return nil
	}
	// Cells are in claim order, so of two writes of one key the later wins.
	nc := min(int(t.cellClaim.Load()), maxCells)
	for c := 0; c < nc; c++ {
		cell := &t.cells[c]
		if cell.ready.Load() != 1 {
			continue
		}
		if int(cell.span) >= n || nodes[cell.span] == nil {
			continue // its span was not visible when the walk above ran
		}
		node := nodes[cell.span]
		if node.Attrs == nil {
			node.Attrs = make(map[string]string, min(int(t.spans[cell.span].attrs.Load()), maxAttrs))
		}
		node.Attrs[cell.key] = cell.value
	}
	snap := &Snapshot{
		DurationUs:   root.DurationUs,
		Complete:     complete,
		DroppedSpans: t.dropped.Load(),
		Root:         root,
	}
	return snap
}

// Dropped reports how many spans were discarded due to slab exhaustion.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
