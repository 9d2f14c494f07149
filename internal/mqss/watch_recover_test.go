package mqss

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/qdmi"
)

// pacedDurableStack is durableStack with a wall-clock execution latency on
// its single device, so jobs stay in flight long enough for a crash to
// strand them and for a watcher to re-attach mid-replay.
func pacedDurableStack(t *testing.T, dir string, latency time.Duration) (*fleet.Scheduler, *Server, *httptest.Server, *durable.Store) {
	t.Helper()
	st, opened, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	qpu, err := device.New(device.Config{Name: "paced", Rows: 4, Cols: 5, Seed: 9, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	qpu.SetExecLatency(latency)
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice("paced", qdmi.NewDevice(qpu, nil), 1); err != nil {
		t.Fatal(err)
	}
	server := NewFleetServer(f)
	if _, err := server.AttachStore(st, opened); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server)
	return f, server, hs, st
}

// TestWatchReattachAfterRestartSeesRecoveredFirst pins the re-attach
// ordering contract: a client that reconnects its watch while the node is
// replaying the WAL must see the `recovered` event for a requeued job
// BEFORE any new state transition. Without that opening event, a watcher
// cannot tell a rebooted job from a stream that silently skipped states.
func TestWatchReattachAfterRestartSeesRecoveredFirst(t *testing.T) {
	dir := t.TempDir()
	f1, server1, hs1, st1 := pacedDurableStack(t, dir, 400*time.Millisecond)

	// Queue three slow jobs on the single worker, then crash while the
	// tail of the queue has not run: those jobs land in the WAL as
	// non-terminal and must be requeued on reboot.
	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "reattach"}
	var last *Job
	for i := 0; i < 3; i++ {
		resp := postV2(t, hs1, "/api/v2/jobs", req, nil)
		last = decodeV2Job(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}

	// kill -9.
	st1.Abandon()
	server1.Close()
	hs1.Close()
	f1.Stop()

	// Reboot and immediately re-attach the watch, racing the requeued
	// backlog that is draining through the 400ms-per-job worker.
	f2, server2, hs2, _ := pacedDurableStack(t, dir, 400*time.Millisecond)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()

	wresp, err := http.Get(hs2.URL + "/api/v2/jobs/" + last.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("re-attached watch = %d", wresp.StatusCode)
	}

	var events []JobEvent
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.State.Terminal() {
			break
		}
	}
	if len(events) == 0 {
		t.Fatal("re-attached watch delivered no events")
	}
	if events[0].Reason != "recovered" {
		t.Fatalf("first event after re-attach = %+v, want reason \"recovered\"", events[0])
	}
	if events[0].State.Terminal() {
		t.Fatalf("recovered event already terminal (%s): the watch attached too late to pin ordering", events[0].State)
	}
	// Every new transition strictly follows the recovered marker, and the
	// stream still runs the job to completion.
	for i, ev := range events[1:] {
		if ev.Reason == "recovered" {
			t.Fatalf("recovered marker repeated at position %d: %+v", i+1, ev)
		}
	}
	if lastEv := events[len(events)-1]; !lastEv.State.Terminal() {
		t.Fatalf("stream ended without a terminal state: %+v", lastEv)
	}
}
