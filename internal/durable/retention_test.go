//go:build !race

// The race detector's shadow memory inflates the heap, so this gate runs
// only without it; CI runs it as its own step.

package durable

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// retainedBytesPerJob runs jobs 5-qubit GHZ jobs through a fresh one-device
// twin fleet, with a SyncOff store attached when withStore, and returns the
// heap the settled fleet and store still hold per job (HeapAlloc after GC,
// both alive).
func retainedBytesPerJob(t *testing.T, jobs int, withStore bool) float64 {
	t.Helper()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	defer f.Stop()
	f.SetTraceRetention(0)
	if err := f.AddDevice("twin", qdmi.NewDevice(device.NewTwin20Q(5), nil), 2); err != nil {
		t.Fatal(err)
	}
	var st *Store
	if withStore {
		var err error
		if st, _, err = Open(t.TempDir(), Options{Sync: SyncOff}); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		f.AttachStore(st)
	}
	before := heap()
	ids := make([]int, jobs)
	for k := range ids {
		id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(5), Shots: 10, User: fmt.Sprintf("u%d", k%8)}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	for _, id := range ids {
		if _, err := f.WaitContext(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	per := (float64(heap()) - float64(before)) / float64(jobs)
	runtime.KeepAlive(f)
	runtime.KeepAlive(st)
	return per
}

// TestStoreRetainsNoJobs is the regression gate for a per-job copy inside
// the store: the journal on disk is the store's only copy of a job, so the
// same jobs with a store attached may leave at most 64 B/job more heap
// behind than without one. A table of records, payloads or LSNs per job
// shows up here as hundreds of bytes per job.
func TestStoreRetainsNoJobs(t *testing.T) {
	const (
		jobs     = 3000
		maxExtra = 64.0 // B/job
	)
	retainedBytesPerJob(t, 100, true) // warm the process-wide caches and pools
	storeless := retainedBytesPerJob(t, jobs, false)
	attached := retainedBytesPerJob(t, jobs, true)
	t.Logf("retained B/job: storeless %.0f, store attached %.0f", storeless, attached)
	if extra := attached - storeless; extra > maxExtra {
		t.Errorf("the store retains %.0f B/job, want <= %.0f: it keeps a per-job copy of what it journaled", extra, maxExtra)
	}
}
