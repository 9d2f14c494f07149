package mqss

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/qdmi"
)

// TestIdempotentReplayOfJobFailedMidMigration pins the dedup window's
// behavior on the ugliest terminal path: a job that was interrupted by a
// device failure, migrated, and then failed for real on the failover
// target. Replaying the same Idempotency-Key must return that same failed
// job — not resubmit it — because the client cannot distinguish "failed
// after migration" from "response lost in flight", and a blind retry would
// double-run on a healthy fleet.
func TestIdempotentReplayOfJobFailedMidMigration(t *testing.T) {
	devA := twinDev(t, "a", 4, 5, 1)
	devB := twinDev(t, "b", 4, 5, 2)
	// Both backends are poisoned: "a" so the in-flight job faults when the
	// device dies, "b" so the migrated attempt fails terminally.
	devA.QPU().SetExecLatency(50 * time.Millisecond)
	devA.QPU().InjectFaults(1000)
	devB.QPU().InjectFaults(1000)
	f := newTestFleet(t, map[string]*qdmi.Device{"a": devA, "b": devB}, 2)
	if err := f.Drain("b"); err != nil { // force routing onto "a"
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const key = "replay-after-migration"
	req := SubmitRequest{Circuit: circuit.GHZ(4), Shots: 20, User: "chaos"}
	h, err := client.Submit(ctx, req, key)
	if err != nil {
		t.Fatal(err)
	}

	// Let the job reach "a"'s executor (50ms round trip), then kill "a"
	// with "b" back in rotation: interrupt -> migrate -> fail on "b".
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, perr := h.Poll(ctx)
		if perr == nil && (j.State == StateRunning || j.State.Terminal()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started executing on device a")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Resume("b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Fail("a"); err != nil {
		t.Fatal(err)
	}

	j, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateFailed {
		t.Fatalf("job ended %s, want failed (both backends poisoned)", j.State)
	}
	if j.Migrations < 1 {
		t.Fatalf("job failed with %d migrations — the mid-migration path was not exercised", j.Migrations)
	}
	submittedOnce := f.Metrics().Submitted

	// The replay: same key, same payload. Must return the same failed job
	// without a new fleet submission.
	h2, err := client.Submit(ctx, req, key)
	if err != nil {
		t.Fatalf("replaying the key of a failed job must succeed: %v", err)
	}
	if h2.ID != h.ID {
		t.Fatalf("replay returned job %s, want the original %s", h2.ID, h.ID)
	}
	j2, err := h2.Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != StateFailed || j2.Migrations != j.Migrations {
		t.Errorf("replayed record diverged: state %s migrations %d, want failed/%d",
			j2.State, j2.Migrations, j.Migrations)
	}
	if got := f.Metrics().Submitted; got != submittedOnce {
		t.Errorf("replay created a new fleet submission (%d -> %d)", submittedOnce, got)
	}

	// A different key is a different job.
	h3, err := client.Submit(ctx, req, "fresh-key")
	if err != nil {
		t.Fatal(err)
	}
	if h3.ID == h.ID {
		t.Error("a fresh idempotency key must not replay the failed job")
	}
	if _, err := h3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}
