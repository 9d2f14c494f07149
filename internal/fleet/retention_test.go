package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/qrm"
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

// heapNow forces a collection and reads the heap it left: the bytes of the
// objects it marked live, and the scannable part of them.
func heapNow() (live, scan uint64) {
	runtime.GC()
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// sealHybridJobs runs hybrid-loop-shaped jobs (one caller, a fresh-angle
// 5-qubit ansatz x 100 shots each) through the daemon's two noisy devices:
// 1 000 to warm the tenant rows, compile maps and pools, then n more. It
// returns the growth of the live and the scannable heap per job over the n,
// and the average record.
func sealHybridJobs(t *testing.T, n int) (live, scan, record float64) {
	s := hybridFleet(t)
	rng := rand.New(rand.NewSource(11))
	run := func(n int) {
		for i := 0; i < n; i++ {
			id, err := s.Submit(qrm.Request{Circuit: ansatz(rng), Shots: 100, User: fmt.Sprintf("u%d", i%4)}, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if j, err := s.WaitContext(context.Background(), id); err != nil || j.Status != JobDone {
				t.Fatalf("job %d: %v, record %+v", id, err, j)
			}
		}
		s.WaitSettled()
	}
	run(1000)
	live0, scan0 := heapNow()
	run(n)
	live1, scan1 := heapNow()
	r := s.Retained()
	runtime.KeepAlive(s)
	return (float64(live1) - float64(live0)) / float64(n), (float64(scan1) - float64(scan0)) / float64(n),
		float64(r.RecordBytes) / float64(r.Sealed)
}

// TestTerminalJobsAreNotScanned is the gate on what a finished job costs the
// collector: 10 000 hybrid-loop-shaped jobs. The scheduler keeps a terminal
// job as its record in a pointer-free arena, so the scannable heap may grow
// by at most 64 B per retained job, and the live heap by at most 2.6 KB: on
// a platform whose arena is on the heap (arena_heap.go), the ~2.1 KB record,
// its index entry, and the slack of the arena's last chunk and the index's
// last growth. Keeping the *Job instead, with its circuit and counts, costs
// ~4.8 KB a job here, of which ~2.9 KB is scanned at every cycle.
func TestTerminalJobsAreNotScanned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap; CI runs this gate as its own non-race step")
	}
	const (
		maxScan = 64.0   // B per retained job
		maxLive = 2600.0 // B per retained job
	)
	live, scan, record := sealHybridJobs(t, 10000)
	t.Logf("per retained job: %.0f B live heap, %.0f B scannable; record %.0f B", live, scan, record)
	if scan > maxScan {
		t.Errorf("scannable heap grows %.0f B per retained job, want <= %.0f: a finished job is kept as pointers", scan, maxScan)
	}
	if live > maxLive {
		t.Errorf("live heap grows %.0f B per retained job, want <= %.0f", live, maxLive)
	}
}

// TestWaitSettledSettles10000Jobs settles a backlog of 10 000 jobs: the wait
// ends once the live table is empty, every job sealed, whatever the history.
func TestWaitSettledSettles10000Jobs(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 5, 0), 2); err != nil {
		t.Fatal(err)
	}
	const jobs = 10000
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(req(2, 5), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitSettled()
	r := s.Retained()
	if len(r.Live) != 0 || r.Sealed != jobs {
		t.Fatalf("after WaitSettled: live %v, sealed %d; want none live, %d sealed", r.Live, r.Sealed, jobs)
	}
	if m := s.Metrics(); m.Completed != jobs {
		t.Fatalf("completed %d of %d", m.Completed, jobs)
	}
}

// TestSealedReadsRaceSealing reads sealed records — by ID, by page and
// decoded — from several goroutines while workers keep sealing more into
// the same arena chunk: a reader holds record bytes with the lock released
// (run it under -race).
func TestSealedReadsRaceSealing(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 8, 0), 2); err != nil {
		t.Fatal(err)
	}
	const jobs = 500
	var last atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				n := int(last.Load())
				if n == 0 {
					continue
				}
				v, err := s.View(1+rng.Intn(n), true, &buf)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Live == nil {
					if h, err := v.Sealed.Head(); err != nil || h.ID != v.ID || h.Shots != 5 {
						t.Errorf("job %d head %+v, %v", v.ID, h, err)
						return
					}
					if j, err := v.Sealed.Job(); err != nil || j.Status != JobDone || len(j.Result.Counts) == 0 {
						t.Errorf("job %d decodes to %+v, %v", v.ID, j, err)
						return
					}
				}
				s.ListViews("", nil, 0, 5, true, &buf)
			}
		}(r)
	}
	for i := 0; i < jobs; i++ {
		id, err := s.Submit(req(2, 5), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		last.Store(int64(id))
	}
	s.WaitSettled()
	close(done)
	wg.Wait()
}
