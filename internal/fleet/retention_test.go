package fleet

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/telemetry/trace"
)

// retainedBytesPerJob runs jobs GHZ(3) x 10-shot jobs through a fresh
// two-device twin fleet and returns the heap the settled fleet still holds
// per job (HeapAlloc after GC, fleet alive).
func retainedBytesPerJob(t *testing.T, jobs int, configure func(*Scheduler)) float64 {
	t.Helper()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	for i, name := range []string{"a", "b"} {
		if err := s.AddDevice(name, mkdev(t, name, 4, 5, int64(60+i), 0), 2); err != nil {
			t.Fatal(err)
		}
	}
	if configure != nil {
		configure(s)
	}
	before := heap()
	r := req(3, 10)
	ids := make([]int, jobs)
	for k := range ids {
		r.User = fmt.Sprintf("u%d", k%8)
		id, err := s.Submit(r, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	for _, id := range ids {
		if _, err := s.WaitContext(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	per := (float64(heap()) - float64(before)) / float64(jobs)
	runtime.KeepAlive(s)
	return per
}

// TestTraceRetentionIsBounded is the regression gate for per-job trace
// leaks: the retention ring is the only thing that may keep a finished
// job's span slab alive, so over many more jobs than the ring holds,
// tracing may cost at most the ring spread over those jobs — and nothing
// with the ring off. A reference from any job record, handle or monitor
// to its trace shows up here as kilobytes per job.
func TestTraceRetentionIsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap; CI runs this gate as its own non-race step")
	}
	const (
		jobs     = 5000
		maxExtra = 512.0 // B/job; the default ring of 256 slabs is ~240 B/job at 5000 jobs
	)
	defer trace.SetEnabled(trace.Enabled())

	trace.SetEnabled(false)
	untraced := retainedBytesPerJob(t, jobs, nil)
	trace.SetEnabled(true)
	traced := retainedBytesPerJob(t, jobs, nil)
	ringOff := retainedBytesPerJob(t, jobs, func(s *Scheduler) { s.SetTraceRetention(0) })
	t.Logf("retained B/job: untraced %.0f, traced (ring %d) %.0f, traced (ring 0) %.0f",
		untraced, DefaultTraceRetention, traced, ringOff)

	if extra := traced - untraced; extra > maxExtra {
		t.Errorf("tracing retains %.0f B/job more than no tracing, want <= %.0f: finished jobs pin their traces past the ring", extra, maxExtra)
	}
	if extra := ringOff - untraced; extra > maxExtra {
		t.Errorf("with retention 0 tracing still retains %.0f B/job more than no tracing, want <= %.0f", extra, maxExtra)
	}
}
