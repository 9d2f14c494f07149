package fleet

import (
	"fmt"
	"testing"
)

// TestSubmitKeyedContract pins the Idempotency-Key contract at its one
// owner: the same key returns the same job, keyless submissions never
// dedup, a refused submission binds nothing, and a key older than the
// window submits fresh.
func TestSubmitKeyedContract(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 2); err != nil {
		t.Fatal(err)
	}
	keyed := func(key string) SubmitOptions { return SubmitOptions{IdemKey: key} }

	first, replayed, err := s.SubmitKeyed(req(2, 5), keyed("k"))
	if err != nil || replayed {
		t.Fatalf("first keyed submit: id %d replayed %v err %v", first, replayed, err)
	}
	again, replayed, err := s.SubmitKeyed(req(2, 5), keyed("k"))
	if err != nil || !replayed || again != first {
		t.Fatalf("same key: id %d replayed %v err %v, want %d replayed", again, replayed, err, first)
	}
	if j, err := s.Job(first); err != nil || j.IdemKey != "k" {
		t.Fatalf("job %d does not carry its key: %+v (%v)", first, j, err)
	}

	a, ra, _ := s.SubmitKeyed(req(2, 5), SubmitOptions{})
	b, rb, _ := s.SubmitKeyed(req(2, 5), SubmitOptions{})
	if a == b || ra || rb {
		t.Fatalf("keyless submissions deduped: %d/%v %d/%v", a, ra, b, rb)
	}

	// A refused submission created no job, so its key stays free.
	if _, _, err := s.SubmitKeyed(req(2, 5), SubmitOptions{IdemKey: "retry", Device: "nope"}); err == nil {
		t.Fatal("pin to unknown device should fail")
	}
	id, replayed, err := s.SubmitKeyed(req(2, 5), keyed("retry"))
	if err != nil || replayed || id <= b {
		t.Fatalf("retry after a refusal: id %d replayed %v err %v, want a fresh job", id, replayed, err)
	}

	// Push "k" out of the window: it then submits fresh, while the newest
	// key still replays.
	var last int
	for i := 0; i < idemWindow; i++ {
		if last, _, err = s.SubmitKeyed(req(2, 1), keyed(fmt.Sprintf("fill-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if id, replayed, _ := s.SubmitKeyed(req(2, 1), keyed(fmt.Sprintf("fill-%d", idemWindow-1))); !replayed || id != last {
		t.Fatalf("newest key: id %d replayed %v, want %d replayed", id, replayed, last)
	}
	if id, replayed, _ := s.SubmitKeyed(req(2, 5), keyed("k")); replayed || id == first {
		t.Fatalf("key older than the window replayed job %d", id)
	}
	s.mu.Lock()
	n, m := len(s.idem), len(s.idemOrder)
	s.mu.Unlock()
	if n != idemWindow || m != idemWindow {
		t.Fatalf("window holds %d keys / %d slots, want %d", n, m, idemWindow)
	}
}

// TestRestoreRebindsNewestKey: a key that aged out and was submitted fresh
// is carried by two recovered jobs; the window must keep the newer binding
// even after the older job's slot is evicted.
func TestRestoreRebindsNewestKey(t *testing.T) {
	jobs := []*Job{{ID: 1, Status: JobDone, IdemKey: "dup"}}
	for i := 2; i <= idemWindow; i++ {
		jobs = append(jobs, &Job{ID: i, Status: JobDone, IdemKey: fmt.Sprintf("k-%d", i)})
	}
	jobs = append(jobs, &Job{ID: idemWindow + 1, Status: JobDone, IdemKey: "dup"})
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if _, err := s.Restore(jobs); err != nil {
		t.Fatal(err)
	}
	retry := req(2, 1)
	retry.User = "" // the tenant of the restored jobs
	if id, replayed, err := s.SubmitKeyed(retry, SubmitOptions{IdemKey: "dup"}); err != nil || !replayed || id != idemWindow+1 {
		t.Fatalf("rebound key: id %d replayed %v err %v, want %d replayed", id, replayed, err, idemWindow+1)
	}
}
