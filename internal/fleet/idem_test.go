package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qrm"
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
	retry := req(2, 1)
	retry.User = "" // the tenant of the restored jobs
	jobs := []*Job{{ID: 1, Status: JobDone, IdemKey: "dup", Request: retry}}
	for i := 2; i <= idemWindow; i++ {
		jobs = append(jobs, &Job{ID: i, Status: JobDone, IdemKey: fmt.Sprintf("k-%d", i)})
	}
	jobs = append(jobs, &Job{ID: idemWindow + 1, Status: JobDone, IdemKey: "dup", Request: retry})
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if _, err := s.Restore(jobs); err != nil {
		t.Fatal(err)
	}
	if id, replayed, err := s.SubmitKeyed(retry, SubmitOptions{IdemKey: "dup"}); err != nil || !replayed || id != idemWindow+1 {
		t.Fatalf("rebound key: id %d replayed %v err %v, want %d replayed", id, replayed, err, idemWindow+1)
	}
}

// TestKeyReusedWithAnotherRequest: a tenant's bound key replays only the
// request it was bound with, read from the live job and again from its
// sealed record. A request that differs in its circuit (its name or one bit
// of an angle), shots, priority, deadline, placement or pinned device is
// ErrKeyReused and mints nothing; the routing policy is not compared.
func TestKeyReusedWithAnotherRequest(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 2, 2, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	build := func(name string, theta float64) qrm.Request {
		return qrm.Request{Circuit: circuit.New(2, name).RX(0, theta).CZ(0, 1), Shots: 5, User: "u"}
	}
	bound := build("c", 0.5)
	keyed := SubmitOptions{IdemKey: "k"}
	variants := []struct {
		name string
		req  func() qrm.Request
		opts SubmitOptions
	}{
		{"circuit name", func() qrm.Request { return build("d", 0.5) }, keyed},
		{"angle bit", func() qrm.Request { return build("c", math.Float64frombits(math.Float64bits(0.5)^1)) }, keyed},
		{"shots", func() qrm.Request { r := build("c", 0.5); r.Shots++; return r }, keyed},
		{"priority", func() qrm.Request { r := build("c", 0.5); r.Priority = 1; return r }, keyed},
		{"deadline", func() qrm.Request { r := build("c", 0.5); r.DeadlineMs = 1e6; return r }, keyed},
		{"placement", func() qrm.Request { r := build("c", 0.5); r.StaticPlacement = true; return r }, keyed},
		{"pinned", func() qrm.Request { return build("c", 0.5) }, SubmitOptions{IdemKey: "k", Device: "a"}},
	}
	minted := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.index)
	}
	check := func(phase string, want int) {
		t.Helper()
		n := minted()
		for _, v := range variants {
			if id, replayed, err := s.SubmitKeyed(v.req(), v.opts); !errors.Is(err, ErrKeyReused) || id != 0 || replayed {
				t.Errorf("%s, another %s: id %d replayed %v err %v, want ErrKeyReused", phase, v.name, id, replayed, err)
			}
		}
		if got := minted(); got != n {
			t.Errorf("%s: %d jobs minted by refused submissions", phase, got-n)
		}
		policy := SubmitOptions{IdemKey: "k", Policy: PolicyRoundRobin}
		if id, replayed, err := s.SubmitKeyed(build("c", 0.5), policy); err != nil || !replayed || id != want {
			t.Errorf("%s, the same request: id %d replayed %v err %v, want %d replayed", phase, id, replayed, err, want)
		}
	}

	if err := s.Drain("a"); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.SubmitKeyed(bound, keyed)
	if err != nil {
		t.Fatal(err)
	}
	check("live", id)
	if err := s.Resume("a"); err != nil {
		t.Fatal(err)
	}
	if rec, err := s.WaitContext(context.Background(), id); err != nil || rec.Status != JobDone {
		t.Fatalf("job %d: %v, record %+v", id, err, rec)
	}
	s.mu.Lock()
	_, live := s.jobs[id]
	s.mu.Unlock()
	if live {
		t.Fatalf("job %d is terminal but not sealed", id)
	}
	check("sealed", id)
}
