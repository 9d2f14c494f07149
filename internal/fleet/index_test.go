package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/qrm"
)

// TestIndexEntryFitsFortyBytes: an index entry is what every job, live or
// sealed, costs besides its record. It holds the job's ID, where its record
// and circuit are stored, its user and its state; the submission instant
// lives with the record and the ack LSN with the key's binding. With those
// two it took 56 B.
func TestIndexEntryFitsFortyBytes(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 40 {
		t.Errorf("an index entry is %d B, want <= 40", size)
	}
}

// TestIndexAcrossPages runs jobs over index pages of four entries, so that
// every read of the index meets page boundaries: View, Peek, Cancel of a
// sealed job, a keyed replay, and ListViews paged by its cursor with and
// without a user filter, started before every ID. An entry taken while its
// page was the last one reads the same, at the same address, once later
// pages are mapped. A restore of ID-gapped jobs spreads them over pages
// too, and the IDs between them read as no job.
func TestIndexAcrossPages(t *testing.T) {
	const (
		shift = 2  // four entries a page
		jobs  = 18 // four full pages and half a fifth
	)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	s.smallIndexPages(shift)
	st := &recordingStore{want: make(map[int][]byte)}
	s.AttachStore(st)
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 5, 0), 1); err != nil {
		t.Fatal(err)
	}
	users := []string{"u0", "u1", "u2"}
	request := func(i int) (qrm.Request, SubmitOptions) {
		return qrm.Request{Circuit: circuit.GHZ(2 + i%2), Shots: 5 + i, User: users[i%len(users)]},
			SubmitOptions{IdemKey: fmt.Sprintf("k%d", i)}
	}
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			r, opts := request(i)
			if id, replayed, err := s.SubmitKeyed(r, opts); err != nil || replayed || id != i+1 {
				t.Fatalf("submission %d: id %d replayed %v err %v", i, id, replayed, err)
			}
		}
		s.WaitSettled()
	}

	submit(0, 1<<shift)
	s.mu.Lock()
	first := s.findLocked(1 << shift) // the last entry of the only page
	before := *first
	s.mu.Unlock()
	submit(1<<shift, jobs)
	s.mu.Lock()
	pages := len(s.arena.index.pages)
	moved := s.findLocked(1<<shift) != first || *first != before
	s.mu.Unlock()
	if pages < 3 {
		t.Fatalf("%d jobs took %d index pages, want >= 3", jobs, pages)
	}
	if moved {
		t.Errorf("job %d's entry moved or changed once %d more pages were mapped: %+v, was %+v", 1<<shift, pages-1, *first, before)
	}
	if r := s.Retained(); r.IndexBytes != int64(jobs*entrySize) || r.Sealed != jobs {
		t.Errorf("retained %+v, want %d sealed in %d B of index", r, jobs, jobs*entrySize)
	}

	var buf []byte
	for id := 1; id <= jobs; id++ {
		v, err := s.View(id, true, &buf)
		if err != nil || v.Live != nil {
			t.Fatalf("job %d: %+v, %v; want it sealed", id, v, err)
		}
		if got, err := recordJSON(v.Sealed); err != nil || !bytes.Equal(got, st.want[id]) {
			t.Errorf("View: job %d reads (%v)\n%s\nthe live job wrote\n%s", id, err, got, st.want[id])
		}
		if state, device, _, err := s.Peek(id); err != nil || state != JobDone || device != "a" {
			t.Errorf("Peek: job %d reads %s on %q, %v", id, state, device, err)
		}
		if err := s.Cancel(id); !errors.Is(err, ErrJobTerminal) {
			t.Errorf("Cancel of sealed job %d: %v, want ErrJobTerminal", id, err)
		}
		r, opts := request(id - 1)
		if got, replayed, err := s.SubmitKeyed(r, opts); err != nil || !replayed || got != id {
			t.Errorf("replay of job %d's key: id %d replayed %v err %v", id, got, replayed, err)
		}
	}
	for _, id := range []int{0, jobs + 1} {
		if _, err := s.View(id, false, nil); !errors.Is(err, ErrNoJob) {
			t.Errorf("View of job %d: %v, want ErrNoJob", id, err)
		}
	}

	ids := make([]int, jobs)
	for i := range ids {
		ids[i] = i + 1
	}
	checkListing(t, s, "", ids)
	for u, user := range users {
		var own []int
		for _, id := range ids {
			if (id-1)%len(users) == u {
				own = append(own, id)
			}
		}
		checkListing(t, s, user, own)
	}

	// A restore enters jobs by ID, gaps and all, over five pages.
	restored := []int{41, 3, 5, 6, 10, 11, 12, 13, 20, 40, 2, 60, 61, 62, 63, 64, 90}
	r := New(PolicyBestFidelity, nil)
	defer r.Stop()
	r.smallIndexPages(shift)
	var in []*Job
	want := make(map[int]*Job)
	for k, id := range restored {
		j := &Job{ID: id, Status: sealedStates[1+k%3], Device: "a", Request: qrm.Request{Circuit: circuit.GHZ(2), Shots: id, User: users[k%len(users)]},
			SubmitUnixMs: 1_700_000_000_000 + int64(k%5-2)*86_400_000*int64(id), IdemKey: fmt.Sprintf("r%d", id)}
		if j.Status == JobDone {
			j.Result = &Result{Counts: circuit.Counts{0: id, 3: 1}, SubmitTime: 1, EndTime: 2}
		}
		in = append(in, j)
		cp := *j
		cp.Recovered = true
		want[id] = &cp
	}
	if stats, err := r.Restore(in); err != nil || stats.Terminal != len(restored) {
		t.Fatalf("restore: %+v, %v", stats, err)
	}
	var present []int
	for id := 0; id <= 91; id++ {
		w, ok := want[id]
		if !ok {
			if _, err := r.View(id, false, nil); !errors.Is(err, ErrNoJob) {
				t.Errorf("View of job %d, between restored ones: %v, want ErrNoJob", id, err)
			}
			if _, _, _, err := r.Peek(id); !errors.Is(err, ErrNoJob) {
				t.Errorf("Peek of job %d, between restored ones: %v, want ErrNoJob", id, err)
			}
			if err := r.Cancel(id); !errors.Is(err, ErrNoJob) {
				t.Errorf("Cancel of job %d, between restored ones: %v, want ErrNoJob", id, err)
			}
			continue
		}
		present = append(present, id)
		j, err := r.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := j.AppendJSON(nil)
		wantJSON, _ := w.AppendJSON(nil)
		if !bytes.Equal(got, wantJSON) || j.SubmitUnixMs != w.SubmitUnixMs {
			t.Errorf("restored job %d reads\n%s (submitted %d)\nwant\n%s (submitted %d)", id, got, j.SubmitUnixMs, wantJSON, w.SubmitUnixMs)
		}
		if err := r.Cancel(id); !errors.Is(err, ErrJobTerminal) {
			t.Errorf("Cancel of restored job %d: %v, want ErrJobTerminal", id, err)
		}
		if got, replayed, err := r.SubmitKeyed(w.Request, SubmitOptions{IdemKey: w.IdemKey}); err != nil || !replayed || got != id {
			t.Errorf("replay of restored job %d's key: id %d replayed %v err %v", id, got, replayed, err)
		}
	}
	checkListing(t, r, "", present)
}

// checkListing lists user's jobs of s ("" any user) every way a cursor
// reaches them: pages of three from the newest, each started at the last ID
// the one before it listed, and one job before every ID up to one past the
// newest. ids are the IDs the listing must show, in ascending order.
func checkListing(t *testing.T, s *Scheduler, user string, ids []int) {
	t.Helper()
	var got []int
	var buf []byte
	for cursor, more := 0, true; more; {
		var views []View
		views, more = s.ListViews(user, nil, cursor, 3, false, &buf)
		for _, v := range views {
			got = append(got, v.ID)
		}
		if len(views) == 0 {
			break
		}
		cursor = views[len(views)-1].ID
	}
	if len(got) != len(ids) {
		t.Fatalf("user %q: listed %v, want %d jobs %v", user, got, len(ids), ids)
	}
	for k, id := range got {
		if want := ids[len(ids)-1-k]; id != want {
			t.Fatalf("user %q: listed %v, want %v newest first", user, got, ids)
		}
	}
	next := 0 // position in ids of the newest ID below the cursor, plus one
	for before := 1; before <= ids[len(ids)-1]+1; before++ {
		for next < len(ids) && ids[next] < before {
			next++
		}
		views, more := s.ListViews(user, nil, before, 1, false, &buf)
		switch {
		case next == 0 && len(views) != 0:
			t.Errorf("user %q, before %d: listed job %d, want none", user, before, views[0].ID)
		case next > 0 && (len(views) != 1 || views[0].ID != ids[next-1] || more != (next > 1)):
			t.Errorf("user %q, before %d: listed %d jobs (more %v), want job %d first", user, before, len(views), more, ids[next-1])
		}
	}
}
