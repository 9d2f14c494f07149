package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBasicTree(t *testing.T) {
	tr := New("job", Str("user", "alice"))
	if tr == nil {
		t.Fatal("New returned nil with tracing enabled")
	}
	root := tr.Root()
	qw := root.StartChild("queue-wait")
	time.Sleep(time.Millisecond)
	qw.End()
	ex := root.StartChild("execute", Str("device", "d0"))
	sim := ex.StartChild("simulate", Str("strategy", "fast-path"))
	sim.End()
	ex.End()
	root.End(Str("outcome", "done"))

	snap := tr.Snapshot()
	if snap == nil || snap.Root == nil {
		t.Fatal("nil snapshot")
	}
	if !snap.Complete {
		t.Errorf("snapshot not complete: %+v", snap)
	}
	if snap.Root.Name != "job" || snap.Root.Attrs["user"] != "alice" || snap.Root.Attrs["outcome"] != "done" {
		t.Errorf("root mismatch: %+v", snap.Root)
	}
	if len(snap.Root.Children) != 2 {
		t.Fatalf("want 2 children, got %d", len(snap.Root.Children))
	}
	if snap.Root.Children[0].Name != "queue-wait" || snap.Root.Children[0].DurationUs < 500 {
		t.Errorf("queue-wait child wrong: %+v", snap.Root.Children[0])
	}
	exn := snap.Root.Children[1]
	if exn.Name != "execute" || len(exn.Children) != 1 || exn.Children[0].Attrs["strategy"] != "fast-path" {
		t.Errorf("execute subtree wrong: %+v", exn)
	}
	if snap.DurationUs <= 0 {
		t.Errorf("root duration %v", snap.DurationUs)
	}
}

func TestDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	tr := New("job")
	if tr != nil {
		t.Fatal("New should return nil when disabled")
	}
	// Everything downstream must be inert.
	root := tr.Root()
	if root != (Span{}) {
		t.Fatal("a nil trace's root should be the zero Span")
	}
	c := root.StartChild("x")
	if c != (Span{}) {
		t.Fatal("the zero Span's child should be the zero Span")
	}
	c.SetAttr("k", "v")
	c.End()
	root.End()
	if snap := tr.Snapshot(); snap != nil {
		t.Fatal("nil trace snapshot should be nil")
	}
}

// TestContextThreading: a span handed down the stack by value grows one
// tree under the root it came from.
func TestContextThreading(t *testing.T) {
	tr := New("job")
	sp := tr.Root().StartChild("stage", Int("n", 3))
	if sp == (Span{}) {
		t.Fatal("expected live span")
	}
	passed := func(parent Span) { parent.StartChild("sub").End() }
	passed(sp)
	sp.End()
	snap := tr.Snapshot()
	if len(snap.Root.Children) != 1 || snap.Root.Children[0].Attrs["n"] != "3" {
		t.Fatalf("bad tree: %+v", snap.Root)
	}
	if len(snap.Root.Children[0].Children) != 1 {
		t.Fatalf("sub span missing: %+v", snap.Root.Children[0])
	}
}

func TestSlabExhaustion(t *testing.T) {
	tr := New("job")
	root := tr.Root()
	spans := make([]Span, 0, maxSpans*2)
	for i := 0; i < maxSpans*2; i++ {
		spans = append(spans, root.StartChild(fmt.Sprintf("s%d", i)))
	}
	for i, s := range spans {
		if dropped := i >= maxSpans-1; dropped != (s == Span{}) {
			t.Errorf("span %d is the zero Span: %v, want %v", i, !dropped, dropped)
		}
		s.End() // inert past the cap
	}
	if tr.Dropped() != maxSpans+1 {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), maxSpans+1)
	}
	snap := tr.Snapshot()
	if len(snap.Root.Children) != maxSpans-1 {
		t.Errorf("children = %d, want %d", len(snap.Root.Children), maxSpans-1)
	}
	if snap.DroppedSpans == 0 {
		t.Error("snapshot should carry the dropped count")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New("job")
	s := tr.Root().StartChild("x")
	s.End()
	first := tr.Snapshot().Root.Children[0].DurationUs
	time.Sleep(2 * time.Millisecond)
	s.End(Str("late", "attr"))
	snap := tr.Snapshot().Root.Children[0]
	if snap.DurationUs != first {
		t.Errorf("second End moved duration: %v -> %v", first, snap.DurationUs)
	}
	if snap.Attrs["late"] != "attr" {
		t.Error("late attrs should still attach")
	}
}

// TestConcurrentAppendAndSnapshot hammers one trace from many goroutines
// (span starts, ends, attr writes) while snapshot readers run — the race
// detector validates the lock-free publication protocol.
func TestConcurrentAppendAndSnapshot(t *testing.T) {
	tr := New("job")
	root := tr.Root()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := root.StartChild("work", Int("g", g))
				s.SetAttr("i", itoa(int64(i)))
				s.End(Str("ok", "true"))
			}
		}(g)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = tr.Snapshot()
				}
			}
		}()
	}
	// Concurrent root attr stamping (the X-Request-ID path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			root.SetAttr("request_id", "req-1")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	root.End()
	snap := tr.Snapshot()
	if snap == nil || !snap.Complete {
		t.Fatalf("final snapshot incomplete: %+v", snap)
	}
	// 8 goroutines x 50 spans >> maxSpans: drops must account for the rest.
	if got := len(snap.Root.Children) + int(snap.DroppedSpans); got != 8*50 {
		t.Errorf("children+dropped = %d, want %d", got, 8*50)
	}
}

func TestAttrOverflow(t *testing.T) {
	tr := New("job")
	s := tr.Root().StartChild("x")
	for i := 0; i < maxAttrs+4; i++ {
		s.SetAttr(fmt.Sprintf("k%d", i), "v")
	}
	s.End()
	if n := len(tr.Snapshot().Root.Children[0].Attrs); n != maxAttrs {
		t.Errorf("attrs = %d, want cap %d", n, maxAttrs)
	}
}

// TestAttrCellsArePooled pins the pool: attributes take cells in claim order
// whichever span they land on, each span keeps at most maxAttrs, and past
// maxCells the rest are dropped without touching what the spans already hold.
func TestAttrCellsArePooled(t *testing.T) {
	tr := New("job", Str("user", "alice"))
	root := tr.Root()
	for i := 0; i < maxSpans-1; i++ {
		root.StartChild(fmt.Sprintf("s%d", i), Int("a", i), Int("b", i), Int("c", i)).End()
	}
	snap := tr.Snapshot()
	if tr.Dropped() != 0 || len(snap.Root.Children) != maxSpans-1 {
		t.Fatalf("%d children, %d dropped: the slab holds %d spans", len(snap.Root.Children), tr.Dropped(), maxSpans)
	}
	kept := len(snap.Root.Attrs)
	for i, c := range snap.Root.Children {
		kept += len(c.Attrs)
		if want := min(3, max(0, maxCells-1-3*i)); len(c.Attrs) != want {
			t.Errorf("span %d kept %d attrs, want %d", i, len(c.Attrs), want)
		}
	}
	if kept != maxCells {
		t.Errorf("%d attributes kept, want the pool's %d", kept, maxCells)
	}
}

// TestTwoFailoversKeepTheOutcome stamps what the fleet stamps on a job that
// fails over twice and then completes: the slab drops the last leg's
// simulate span, and the pool still holds the root's outcome, stamped last.
func TestTwoFailoversKeepTheOutcome(t *testing.T) {
	tr := New("job", Int("job_id", 7), Str("user", "u"))
	root := tr.Root()
	root.SetAttr("request_id", "r")
	leg := func(outcome string) {
		root.StartChild("queue-wait").End()
		root.StartChild("route", Str("device", "d")).End()
		on := root.StartChild("on-device", Str("device", "d"))
		on.StartChild("compile").End(Str("cache", "miss"), Int("epoch", 0), Int("cz", 6), Int("swaps", 0))
		ex := on.StartChild("execute", Int("shots", 100), Int("gates", 26))
		if outcome == "done" {
			ex.StartChild("simulate", Int("leaves", 1), Int("exact_sites", 0), Int("deferred_sites", 0), Int("forks", 0), Int("forks_helped", 0)).End()
			ex.End()
			on.End(Str("outcome", outcome))
			return
		}
		ex.End()
		on.End(Str("outcome", outcome), Str("error", "execute: fault"))
	}
	leg("failed")
	leg("failed")
	leg("done")
	root.End(Str("outcome", "done"))
	snap := tr.Snapshot()
	if tr.Dropped() != 1 {
		t.Errorf("dropped %d spans, want the last leg's simulate", tr.Dropped())
	}
	if got := snap.Root.Attrs["outcome"]; got != "done" {
		t.Errorf("root outcome %q, want done: the attribute pool ran out", got)
	}
}
