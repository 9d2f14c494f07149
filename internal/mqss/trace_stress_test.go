package mqss

// Stress for the tracing plane's lock-free contract, meaningful under
// -race (the CI test job runs the package that way): workers append spans
// and the retention ring evicts trace pointers while HTTP readers snapshot
// the same traces through GET /api/v2/jobs/{id}/trace. Nothing here
// asserts timings — the point is that concurrent append/evict/read holds
// up with zero torn reads, and that the endpoint always answers with
// either a tree or the documented 404.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
)

func TestTraceStressConcurrentReadersAndEviction(t *testing.T) {
	m, server := pacedStack(t, 91, 500*time.Microsecond, 4)
	// A tiny ring forces constant eviction under the submit load, so
	// readers race eviction on nearly every request.
	m.SetTraceRetention(4)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	const (
		submitters       = 4
		jobsPerSubmitter = 25
	)
	var (
		submitted atomic.Int64
		trees     atomic.Int64
		misses    atomic.Int64
		wg        sync.WaitGroup
		done      = make(chan struct{})
	)

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsPerSubmitter; i++ {
				sreq := SubmitRequest{
					Circuit: circuit.GHZ(3 + (g+i)%3), Shots: 5,
					User: fmt.Sprintf("stress-%d", g),
				}
				status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs", sreq, nil)
				// 200 instead of 202: the job settled before the response rendered.
				if status != http.StatusAccepted && status != http.StatusOK {
					t.Errorf("submit = %d\n%s", status, body)
					return
				}
				submitted.Add(1)
			}
		}(g)
	}

	// Readers sweep the id space continuously while jobs run and evict.
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			id := 1
			for {
				select {
				case <-done:
					return
				default:
				}
				status, body := contractDo(t, srv, http.MethodGet,
					fmt.Sprintf("/api/v2/jobs/j-%d/trace", id), nil, nil)
				switch status {
				case http.StatusOK:
					trees.Add(1)
					if len(body) == 0 {
						t.Error("200 trace with empty body")
					}
				case http.StatusNotFound:
					misses.Add(1) // unknown job, or evicted: both documented
				default:
					t.Errorf("trace read = %d\n%s", status, body)
				}
				id = id%(submitters*jobsPerSubmitter) + 1
			}
		}()
	}

	wg.Wait()
	// Drain: every submitted job must settle so eviction has churned the
	// full id space at least once past the ring size.
	m.WaitSettled()
	close(done)
	readers.Wait()

	if got := submitted.Load(); got != submitters*jobsPerSubmitter {
		t.Fatalf("submitted %d jobs, want %d", got, submitters*jobsPerSubmitter)
	}
	if trees.Load() == 0 {
		t.Errorf("readers never saw a span tree (trees=0, misses=%d)", misses.Load())
	}
	retained, _ := m.TraceStats()
	if retained > 4 {
		t.Errorf("retention ring holds %d traces, cap 4", retained)
	}
	t.Logf("stress: %d submitted, %d tree reads, %d misses, %d retained",
		submitted.Load(), trees.Load(), misses.Load(), retained)
}
