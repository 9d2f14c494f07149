package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
)

// journalSteps is the life every job of the concurrency tests journals, in
// order; done is the state a reopen must find.
var journalSteps = []fleet.JobStatus{fleet.JobQueued, fleet.JobRouted, fleet.JobRunning, fleet.JobDone}

// journalJobs has writers goroutines journal jobs distinct jobs each through
// journalSteps, waiting for each record to be durable. IDs start at first.
func journalJobs(st *Store, first, writers, jobs int) {
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < jobs; k++ {
				id := first + w*jobs + k
				for _, status := range journalSteps {
					st.WaitDurable(st.JournalFleetJob(&fleet.Job{ID: id, Status: status, IdemKey: fmt.Sprintf("key-%d", id)}))
				}
			}
		}(w)
	}
	wg.Wait()
}

// compactLoop runs Compact back to back until stop closes or a Compact
// fails; the returned channel yields that error (nil after stop) once the
// loop has exited.
func compactLoop(st *Store, stop <-chan struct{}) <-chan error {
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := st.Compact(); err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

// TestCompactConcurrentWithJournal: writers journal distinct jobs through
// several transitions while Compact folds the sealed log in a loop. After
// Close and a reopen every job reads its last journaled state — a record
// appended while a compaction folded the segments before it is neither lost
// nor shadowed by the snapshot. Runs under -race in the regular suite.
func TestCompactConcurrentWithJournal(t *testing.T) {
	const writers, jobs = 4, 30
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	compacted := compactLoop(st, stop)
	journalJobs(st, 1, writers, jobs)
	close(stop)
	if err := <-compacted; err != nil {
		t.Fatalf("compaction during journaling: %v", err)
	}
	if n := st.Stats().Compactions; n == 0 {
		t.Fatal("no compaction completed while the writers ran")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rec.FleetJobs) != writers*jobs {
		t.Fatalf("recovered %d jobs, want %d", len(rec.FleetJobs), writers*jobs)
	}
	for _, j := range rec.FleetJobs {
		if j.Status != fleet.JobDone || j.IdemKey != fmt.Sprintf("key-%d", j.ID) {
			t.Errorf("job %d recovered %s with key %q, want done with key-%d", j.ID, j.Status, j.IdemKey, j.ID)
		}
	}
}

// TestAbandonDuringCompact: a kill -9 while a compaction runs waits that
// compaction out, writes nothing afterwards, and leaves a directory Open
// accepts with every job acknowledged before the kill.
func TestAbandonDuringCompact(t *testing.T) {
	const writers, jobs = 2, 20
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	journalJobs(st, 1, writers, jobs) // acknowledged before the kill

	stop := make(chan struct{})
	defer close(stop)
	compacted := compactLoop(st, stop)
	inflight := make(chan struct{})
	go func() { // in flight at the kill
		journalJobs(st, 1+writers*jobs, writers, jobs)
		close(inflight)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compaction completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	st.Abandon()
	after := dirSizes(t, dir)
	if err := <-compacted; err == nil {
		t.Error("Compact after Abandon succeeded")
	}
	<-inflight
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if now := dirSizes(t, dir); fmt.Sprint(now) != fmt.Sprint(after) {
		t.Errorf("the directory changed after Abandon returned:\n before %v\n after  %v", after, now)
	}

	st2, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("open after abandon during compaction: %v", err)
	}
	defer st2.Close()
	byID := map[int]*fleet.Job{}
	for _, j := range rec.FleetJobs {
		byID[j.ID] = j
	}
	for id := 1; id <= writers*jobs; id++ {
		if j := byID[id]; j == nil || j.Status != fleet.JobDone {
			t.Errorf("acknowledged job %d recovered as %+v, want done", id, j)
		}
	}
}

// dirSizes lists dir's files with their sizes.
func dirSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, e := range ents {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}
