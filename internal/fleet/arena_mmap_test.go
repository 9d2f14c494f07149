//go:build unix

package fleet

import (
	"bytes"
	"runtime/debug"
	"testing"
)

// TestSealedRecordsAreOffTheHeap: the arena's chunks and the job index's
// pages are mapped outside the Go heap, so a sealed job adds neither its
// record nor its index entry to the live heap: at most 32 B per job, none
// of it the scheduler's (~22 B over 5 000 hybrid-loop jobs, most of it the
// devices' compile maps, which are bounded, filling). With the index a
// slice on the heap it grew ~90 B per job, its 56-B entry and the slack of
// the slice's last doubling; with the chunks on the heap too, by the
// ~420-B record more.
func TestSealedRecordsAreOffTheHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap; CI runs this gate as its own non-race step")
	}
	const maxLive = 32.0 // B per sealed job
	live, _, record := sealHybridJobs(t, 5000)
	t.Logf("per sealed job: %.0f B live heap; record %.0f B", live, record)
	if live > maxLive {
		t.Errorf("live heap grows %.0f B per sealed job, want <= %.0f (the record is %.0f B): the records or the index are on the heap", live, maxLive, record)
	}
}

// TestViewsOutliveTheArena reads sealed jobs every way the scheduler offers
// — View, ListViews, Peek and Job — then unmaps the arena's chunks, as its
// finalizer does once the scheduler is unreachable, and reads what those
// calls returned again. A view that still shared the arena would fault.
func TestViewsOutliveTheArena(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 8, 0), 1); err != nil {
		t.Fatal(err)
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(req(2, 5), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitSettled()

	var one, page []byte
	v, err := s.View(3, true, &one)
	if err != nil || v.Live != nil {
		t.Fatalf("view of job 3: %+v, %v; want it sealed", v, err)
	}
	views, _ := s.ListViews("", nil, 0, jobs, true, &page)
	if len(views) != jobs {
		t.Fatalf("listed %d jobs, want %d", len(views), jobs)
	}
	st, device, _, err := s.Peek(5)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Job(7)
	if err != nil {
		t.Fatal(err)
	}
	h, err := v.Sealed.Head()
	if err != nil {
		t.Fatal(err)
	}
	read := func(r Record) []byte {
		b, err := recordJSON(r)
		if err != nil {
			t.Fatalf("job %d: %v", r.ID, err)
		}
		return b
	}
	want := make([][]byte, len(views))
	for i, lv := range views {
		want[i] = read(lv.Sealed)
	}
	wantOne := read(v.Sealed)

	s.Stop()
	s.arena.free()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("a read after the arena was unmapped faulted: %v", r)
		}
	}()
	if !bytes.Equal(read(v.Sealed), wantOne) || h.ID != 3 || h.Device != "a" || h.Shots != 5 {
		t.Errorf("View's record changed: head %+v", h)
	}
	for i, lv := range views {
		if !bytes.Equal(read(lv.Sealed), want[i]) {
			t.Errorf("ListViews' record of job %d changed", lv.ID)
		}
	}
	if st != JobDone || device != "a" {
		t.Errorf("Peek: %s on %q, want done on \"a\"", st, device)
	}
	if j.ID != 7 || j.Status != JobDone || j.Device != "a" || len(j.Result.Counts) == 0 {
		t.Errorf("Job: %+v", j)
	}
}
