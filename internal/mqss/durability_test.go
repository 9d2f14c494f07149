package mqss

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// durableStack builds a fleet server backed by a crash-durable store in
// dir, restoring whatever a previous incarnation left there (cold start on
// an empty dir).
func durableStack(t *testing.T, dir string) (*fleet.Scheduler, *Server, *httptest.Server, *durable.Store) {
	return durableStackSync(t, dir, durable.SyncAlways)
}

func durableStackSync(t *testing.T, dir string, mode durable.SyncMode) (*fleet.Scheduler, *Server, *httptest.Server, *durable.Store) {
	t.Helper()
	st, opened, err := durable.Open(dir, durable.Options{Sync: mode})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	for name, seed := range map[string]int64{"alpha": 1, "beta": 2} {
		if err := f.AddDevice(name, twinDev(t, name, 4, 5, seed), 2); err != nil {
			t.Fatal(err)
		}
	}
	stopAndAuditAtCleanup(t, f)
	server := NewFleetServer(f)
	if _, err := server.AttachStore(st, opened); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server)
	return f, server, hs, st
}

// TestIdempotencyAcrossRestart is the chaos regression for the durability
// contract clients actually depend on: submit with an Idempotency-Key, kill
// the node (store abandoned mid-flight), reboot from the same data dir, and
// re-submit the same key. The replay must return the SAME v2 job ID with
// the Idempotency-Replayed header, the completed work must not run again,
// and the recovered job must still carry its terminal result.
func TestIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	f1, server1, hs1, st1 := durableStack(t, dir)

	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "chaos"}
	hdr := map[string]string{"Idempotency-Key": "chaos-key"}
	resp := postV2(t, hs1, "/api/v2/jobs?wait=10s", req, hdr)
	first := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if !first.State.Terminal() || first.State != StateDone {
		t.Fatalf("pre-crash job did not finish: %+v", first)
	}

	// kill -9: the store loses anything unflushed, the process vanishes.
	st1.Abandon()
	server1.Close()
	hs1.Close()
	f1.Stop()

	// Reboot from the same directory.
	f2, server2, hs2, _ := durableStack(t, dir)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()

	// Same key after the restart: same ID, marked replayed, no re-execution.
	resp = postV2(t, hs2, "/api/v2/jobs", req, hdr)
	replayed := decodeV2Job(t, resp.Body)
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("post-restart replay missing Idempotency-Replayed header")
	}
	resp.Body.Close()
	if replayed.ID != first.ID {
		t.Fatalf("idempotency broke across restart: got %s, want %s", replayed.ID, first.ID)
	}
	if replayed.State != StateDone || !replayed.Recovered {
		t.Fatalf("replayed job should be the recovered terminal record: %+v", replayed)
	}
	if len(replayed.Counts) == 0 {
		t.Error("recovered job lost its measurement counts")
	}

	// The dedup must have bound to the restored job, not created a second
	// one: the job list still holds exactly one job.
	list, err := httpGetJSON(hs2.URL + "/api/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if jobs, ok := list["jobs"].([]interface{}); !ok || len(jobs) != 1 {
		t.Fatalf("restart+replay changed the job count: %v", list["jobs"])
	}

	// A different key is still a fresh job on the rebooted node.
	resp = postV2(t, hs2, "/api/v2/jobs?wait=10s", req, map[string]string{"Idempotency-Key": "other-key"})
	other := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if other.ID == first.ID {
		t.Error("distinct key deduped against the recovered job")
	}
}

// TestCrashPrefixKeepsKeyBound is the crash-prefix property for the
// Idempotency-Key binding: keyed submits through the v2 handler on a
// group-commit store, then a reopen from EVERY frame-boundary prefix of the
// journal. At each prefix a recovered job must still be bound to its key —
// the binding travels in the job's own record, so there is no prefix that
// holds the job without it (a crash at such a prefix would mint a second job
// for the retry and run the work twice).
func TestCrashPrefixKeepsKeyBound(t *testing.T) {
	dir := t.TempDir()
	f, server, hs, st := durableStackSync(t, dir, durable.SyncGroup)
	keyOf := map[int]string{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("prefix-key-%d", i)
		resp := postV2(t, hs, "/api/v2/jobs?wait=10s",
			SubmitRequest{Circuit: circuit.GHZ(2), Shots: 4, User: "prefix"},
			map[string]string{"Idempotency-Key": key})
		job := decodeV2Job(t, resp.Body)
		resp.Body.Close()
		id, err := ParseJobID(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		keyOf[id] = key
	}
	server.Close()
	hs.Close()
	f.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one journal segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Frame = [length u32][crc u32][lsn u64][payload]; walk the boundaries
	// up to a zero header: the segment is grown by zeros ahead of its
	// frames, and nothing but zeros may follow the last one.
	zeroHeader := make([]byte, 16)
	cuts := []int{0}
	for off := 0; off+16 <= len(data) && !bytes.Equal(data[off:off+16], zeroHeader); {
		off += 16 + int(binary.LittleEndian.Uint32(data[off:]))
		cuts = append(cuts, off)
	}
	last := cuts[len(cuts)-1]
	if last > len(data) || len(bytes.Trim(data[last:], "\x00")) != 0 || len(cuts) < 1+3*len(keyOf) {
		t.Fatalf("journal framing: %d boundaries ending at %d of %d bytes, then not only zeros", len(cuts), last, len(data))
	}
	recoveredAtSomePrefix := 0
	for _, cut := range cuts {
		// A crash at a frame boundary leaves the frames before it and the
		// segment's zeros after it.
		trial := t.TempDir()
		prefix := append(data[:cut:cut], make([]byte, len(data)-cut)...)
		if err := os.WriteFile(filepath.Join(trial, filepath.Base(segs[0])), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rec, err := durable.Open(trial, durable.Options{Sync: durable.SyncOff})
		if err != nil {
			t.Fatalf("prefix %d: %v", cut, err)
		}
		// No devices: recovered work parks, and a key that fails to replay
		// is refused outright instead of minting a job.
		f2 := fleet.New(fleet.PolicyBestFidelity, nil)
		if _, err := f2.Restore(rec.FleetJobs); err != nil {
			t.Fatalf("prefix %d: restore: %v", cut, err)
		}
		for _, j := range rec.FleetJobs {
			recoveredAtSomePrefix++
			if j.IdemKey != keyOf[j.ID] {
				t.Errorf("prefix %d: job %d recovered with key %q, want %q", cut, j.ID, j.IdemKey, keyOf[j.ID])
				continue
			}
			id, replayed, err := f2.SubmitKeyed(qrm.Request{Circuit: circuit.GHZ(2), Shots: 4, User: "prefix"},
				fleet.SubmitOptions{IdemKey: keyOf[j.ID]})
			if err != nil || !replayed || id != j.ID {
				t.Errorf("prefix %d: retry of %q = job %d replayed %v (%v), want job %d replayed",
					cut, keyOf[j.ID], id, replayed, err, j.ID)
			}
		}
		f2.Stop()
		st2.Close()
		os.RemoveAll(trial) // one prefix on disk at a time
	}
	if recoveredAtSomePrefix == 0 {
		t.Fatal("no prefix recovered any job; the property was never exercised")
	}
}

// TestRestartKeepsNewestKeys journals more keys than the dedup window holds
// and reboots: exactly the newest window's worth must replay, and the older
// ones submit fresh — the survivors are the newest keys, not a sample.
func TestRestartKeepsNewestKeys(t *testing.T) {
	const window, extra = 1024, 200
	dir := t.TempDir()
	f1, server1, hs1, st1 := durableStackSync(t, dir, durable.SyncOff)
	req := SubmitRequest{Circuit: circuit.GHZ(2), Shots: 1, User: "window"}
	key := func(i int) map[string]string {
		return map[string]string{"Idempotency-Key": fmt.Sprintf("window-key-%d", i)}
	}
	ids := make([]string, window+extra)
	for i := range ids {
		resp := postV2(t, hs1, "/api/v2/jobs", req, key(i))
		ids[i] = decodeV2Job(t, resp.Body).ID
		resp.Body.Close()
	}
	f1.WaitSettled()
	server1.Close()
	hs1.Close()
	f1.Stop()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	f2, server2, hs2, _ := durableStackSync(t, dir, durable.SyncOff)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()
	// Newest first: a fresh submission binds its key and would push the
	// oldest surviving one out of the window.
	for i := len(ids) - 1; i >= 0; i-- {
		resp := postV2(t, hs2, "/api/v2/jobs", req, key(i))
		got := decodeV2Job(t, resp.Body).ID
		replayed := resp.Header.Get("Idempotency-Replayed") == "true"
		resp.Body.Close()
		switch newest := i >= extra; {
		case newest && (!replayed || got != ids[i]):
			t.Fatalf("key %d (inside the window): job %s replayed %v, want %s replayed", i, got, replayed, ids[i])
		case !newest && (replayed || got == ids[i]):
			t.Fatalf("key %d (older than the window): replayed job %s", i, got)
		}
	}
}

// TestInterruptedEnvelope pins the wire contract for jobs the restart could
// not save: the v2 error envelope must be {code:"interrupted"} and
// retryable, keyed off the qrm restore error message.
func TestInterruptedEnvelope(t *testing.T) {
	env := jobErrorEnvelope("interrupted by restart: dispatch deadline passed during recovery")
	if env == nil || env.Code != CodeInterrupted || !env.Retryable {
		t.Fatalf("interrupted envelope wrong: %+v", env)
	}
}

// TestRestoreOutcomeReadsTheFleet: after a kill -9 and a reboot, the store
// admin endpoint's restored counts and qhpc_wal_recovered_jobs_total are
// what the scheduler's Restore did — it is their one owner.
func TestRestoreOutcomeReadsTheFleet(t *testing.T) {
	dir := t.TempDir()
	f1, server1, hs1, st1 := durableStack(t, dir)
	resp := postV2(t, hs1, "/api/v2/jobs?wait=10s", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "restore"}, nil)
	decodeV2Job(t, resp.Body)
	resp.Body.Close()
	st1.Abandon()
	server1.Close()
	hs1.Close()
	f1.Stop()

	f2, server2, hs2, _ := durableStack(t, dir)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()
	if rs := f2.Restored(); rs.Terminal != 1 || rs.Requeued != 0 || rs.Expired != 0 {
		t.Fatalf("fleet restore outcome = %+v, want 1 terminal", rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	status, err := NewRemoteClient(hs2.URL, hs2.Client()).StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := status.Restored; r == nil || r.Terminal != 1 || r.Requeued != 0 || r.Expired != 0 {
		t.Errorf("admin store restored = %+v, want 1 terminal", r)
	}
	mresp, err := hs2.Client().Get(hs2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `qhpc_wal_recovered_jobs_total{mode="always",outcome="terminal"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %s", want)
	}
}

// TestAdminStoreEndpoint covers /api/v2/admin/store in both states: a
// storeless server reports attached=false, an attached one reports live WAL
// counters, and writes are rejected. After a reboot from the same dir its
// replay and restored objects carry the keys qhpcctl store status reads,
// with what the first incarnation left.
func TestAdminStoreEndpoint(t *testing.T) {
	// Storeless server.
	f := newTestFleet(t, map[string]*qdmi.Device{"solo": twinDev(t, "solo", 4, 5, 3)}, 2)
	hs := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(hs.Close)
	body, err := httpGetJSON(hs.URL + "/api/v2/admin/store")
	if err != nil {
		t.Fatal(err)
	}
	if attached, _ := body["attached"].(bool); attached {
		t.Fatalf("storeless server claims a store: %v", body)
	}

	// Attached server, after real traffic.
	dir := t.TempDir()
	f2, server2, hs2, st2 := durableStack(t, dir)
	t.Cleanup(func() { server2.Close(); hs2.Close(); f2.Stop() })
	resp := postV2(t, hs2, "/api/v2/jobs?wait=10s", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "admin"}, nil)
	decodeV2Job(t, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	status, err := NewRemoteClient(hs2.URL, hs2.Client()).StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Attached || status.SyncMode != string(durable.SyncAlways) {
		t.Fatalf("store status wrong: %+v", status)
	}
	if status.LastLSN == 0 || status.DurableLSN < status.LastLSN || status.Appends == 0 || status.Fsyncs == 0 {
		t.Fatalf("store counters did not move: %+v", status)
	}

	// Writes are not part of the surface.
	req, _ := http.NewRequest(http.MethodPost, hs2.URL+"/api/v2/admin/store", nil)
	wresp, err := hs2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST admin/store = %d, want 405", wresp.StatusCode)
	}

	// The in-process client reads the same route through the same server.
	local, err := NewLocalClient(server2).StoreStatus(ctx)
	if err != nil {
		t.Fatalf("local client StoreStatus: %v", err)
	}
	if !reflect.DeepEqual(local, status) {
		t.Errorf("local StoreStatus %+v, remote %+v", local, status)
	}

	// kill -9 and reboot from the same dir: one segment of LastLSN records
	// replayed, no snapshot, and the one job back as history.
	records := st2.Stats().LastLSN
	st2.Abandon()
	f3, server3, hs3, _ := durableStack(t, dir)
	t.Cleanup(func() { server3.Close(); hs3.Close(); f3.Stop() })
	body, err = httpGetJSON(hs3.URL + "/api/v2/admin/store")
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := body["replay"].(map[string]interface{})
	if ms, ok := replay["duration_ms"].(float64); !ok || ms < 0 {
		t.Errorf("replay duration_ms = %v", replay["duration_ms"])
	}
	delete(replay, "duration_ms")
	if want := map[string]interface{}{"records": float64(records), "snapshot_lsn": 0.0, "segments": 1.0}; !reflect.DeepEqual(replay, want) {
		t.Errorf("replay = %v, want %v and duration_ms", replay, want)
	}
	if want := map[string]interface{}{"terminal": 1.0, "requeued": 0.0, "expired": 0.0}; !reflect.DeepEqual(body["restored"], want) {
		t.Errorf("restored = %v, want %v", body["restored"], want)
	}
}

// TestIdempotencyKeyBoundToTenantAndRequest: an Idempotency-Key binds one
// tenant's one request. Over v2 on a durable stack, another tenant's same key
// mints a job of its own, the same tenant's key with another body is a 422
// idempotency_key_reused that mints nothing, and the identical body replays;
// all three hold again after a kill -9 and a reopen of the same directory.
func TestIdempotencyKeyBoundToTenantAndRequest(t *testing.T) {
	dir := t.TempDir()
	hdr := map[string]string{"Idempotency-Key": "bound-key"}
	body := func(user string, shots int) SubmitRequest {
		return SubmitRequest{Circuit: circuit.GHZ(3), Shots: shots, User: user}
	}
	post := func(hs *httptest.Server, req SubmitRequest) (*http.Response, *Job) {
		t.Helper()
		resp := postV2(t, hs, "/api/v2/jobs?wait=10s", req, hdr)
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			var e APIError
			if err := json.Unmarshal(raw, &e); err != nil || e.Code != CodeKeyReused || e.Retryable {
				t.Errorf("status %d body %s: want an idempotency_key_reused envelope, not retryable", resp.StatusCode, raw)
			}
			return resp, nil
		}
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		return resp, &j
	}
	count := func(hs *httptest.Server) int {
		t.Helper()
		list, err := httpGetJSON(hs.URL + "/api/v2/jobs?limit=100")
		if err != nil {
			t.Fatal(err)
		}
		jobs, _ := list["jobs"].([]interface{})
		return len(jobs)
	}
	replayed := func(resp *http.Response) bool { return resp.Header.Get("Idempotency-Replayed") == "true" }

	f1, server1, hs1, st1 := durableStack(t, dir)
	_, u := post(hs1, body("u", 10))
	if u == nil || u.State != StateDone {
		t.Fatalf("tenant u's first submit: %+v", u)
	}
	check := func(stage string, hs *httptest.Server, tenant string) {
		t.Helper()
		before := count(hs)
		resp, other := post(hs, body(tenant, 5))
		if replayed(resp) || other == nil || other.ID == u.ID || other.User != tenant {
			t.Errorf("%s: tenant %s reusing u's key got %+v, replayed %v; want a fresh job of its own", stage, tenant, other, replayed(resp))
		}
		for _, diff := range []SubmitRequest{body("u", 11), {Circuit: circuit.GHZ(2), Shots: 10, User: "u"}, {Circuit: circuit.GHZ(3), Shots: 10, User: "u", Priority: 2}} {
			if resp, j := post(hs, diff); resp.StatusCode != http.StatusUnprocessableEntity || j != nil {
				t.Errorf("%s: tenant u's key with another body: status %d, job %+v; want 422", stage, resp.StatusCode, j)
			}
		}
		if got := count(hs); got != before+1 {
			t.Errorf("%s: %d jobs, want %d: a refused reuse minted a job", stage, got, before+1)
		}
		if resp, again := post(hs, body("u", 10)); !replayed(resp) || again == nil || again.ID != u.ID {
			t.Errorf("%s: tenant u's identical retry got %+v, replayed %v; want %s replayed", stage, again, replayed(resp), u.ID)
		}
	}
	check("before the crash", hs1, "v")

	st1.Abandon() // kill -9
	server1.Close()
	hs1.Close()
	f1.Stop()
	f2, server2, hs2, _ := durableStack(t, dir)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()
	check("after the reboot", hs2, "w")
}

// TestIdempotencyKeyBelongsToOneTenant: an Idempotency-Key binds within the
// tenant that sent it. Tenant v reusing tenant u's key mints a job of its
// own, for its own request, and u's retry still replays u's job; after a
// kill -9 and a reboot from the same directory both keys replay their own
// tenant's job, and a third tenant's same key is again a fresh job.
func TestIdempotencyKeyBelongsToOneTenant(t *testing.T) {
	dir := t.TempDir()
	hdr := map[string]string{"Idempotency-Key": "shared-key"}
	post := func(hs *httptest.Server, user string, shots int) (*Job, bool) {
		t.Helper()
		resp := postV2(t, hs, "/api/v2/jobs?wait=10s", SubmitRequest{Circuit: circuit.GHZ(2), Shots: shots, User: user}, hdr)
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("tenant %s: status %d", user, resp.StatusCode)
		}
		return decodeV2Job(t, resp.Body), resp.Header.Get("Idempotency-Replayed") == "true"
	}
	f1, server1, hs1, st1 := durableStack(t, dir)
	u, replayed := post(hs1, "u", 10)
	if replayed || u.User != "u" || u.Shots != 10 {
		t.Fatalf("tenant u's first submit: %+v, replayed %v", u, replayed)
	}
	v, replayed := post(hs1, "v", 7)
	if replayed || v.ID == u.ID || v.User != "v" || v.Shots != 7 || v.State != StateDone {
		t.Fatalf("tenant v reusing u's key got %+v, replayed %v; want a fresh job of its own", v, replayed)
	}
	check := func(stage string, hs *httptest.Server) {
		t.Helper()
		for _, want := range []*Job{u, v} {
			got, replayed := post(hs, want.User, want.Shots)
			if !replayed || got.ID != want.ID || got.User != want.User || got.Shots != want.Shots {
				t.Errorf("%s: tenant %s's retry got %s (user %s, %d shots), replayed %v; want its own %s replayed",
					stage, want.User, got.ID, got.User, got.Shots, replayed, want.ID)
			}
		}
	}
	check("before the crash", hs1)

	st1.Abandon() // kill -9
	server1.Close()
	hs1.Close()
	f1.Stop()
	f2, server2, hs2, _ := durableStack(t, dir)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()
	check("after the reboot", hs2)
	if w, replayed := post(hs2, "w", 3); replayed || w.ID == u.ID || w.ID == v.ID || w.User != "w" {
		t.Fatalf("tenant w after the reboot got %+v, replayed %v; want a fresh job", w, replayed)
	}
}

// TestTerminalRecordSurvivesRestart: a terminal job reads the same after a
// kill -9 and a reopen of its data directory — journaled, folded back by
// Restore, sealed into its stored record and rendered from it — save the
// "recovered":true the restore adds. The jobs are one done with a histogram
// of 40 or more outcomes, one failed with an error that holds a quote and a
// non-ASCII rune (the device's own name, in its fault), and one cancelled,
// each keyed and unkeyed, under the group-commit and the always-fsync WAL.
func TestTerminalRecordSurvivesRestart(t *testing.T) {
	const qpuName = `ké"lvin`
	open := func(t *testing.T, dir string, mode durable.SyncMode) (*fleet.Scheduler, *httptest.Server, *durable.Store, *device.QPU) {
		t.Helper()
		st, opened, err := durable.Open(dir, durable.Options{Sync: mode})
		if err != nil {
			t.Fatal(err)
		}
		qpu, err := device.New(device.Config{Name: qpuName, Rows: 3, Cols: 3, Seed: 4, DigitalTwin: true})
		if err != nil {
			t.Fatal(err)
		}
		f := fleet.New(fleet.PolicyBestFidelity, nil)
		if err := f.AddDevice("kelvin", qdmi.NewDevice(qpu, nil), 1); err != nil {
			t.Fatal(err)
		}
		stopAndAuditAtCleanup(t, f)
		server := NewFleetServer(f)
		if _, err := server.AttachStore(st, opened); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(server)
		t.Cleanup(hs.Close)
		return f, hs, st, qpu
	}
	get := func(t *testing.T, hs *httptest.Server, id string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + "/api/v2/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s (%v)", id, resp.StatusCode, b, err)
		}
		return b
	}
	wide := circuit.New(6, "uniform")
	for q := 0; q < 6; q++ {
		wide.H(q)
	}
	for _, mode := range []durable.SyncMode{durable.SyncGroup, durable.SyncAlways} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			f, hs, st, qpu := open(t, dir, mode)
			submit := func(req SubmitRequest, key, query string) *Job {
				t.Helper()
				var hdr map[string]string
				if key != "" {
					hdr = map[string]string{"Idempotency-Key": key}
				}
				resp := postV2(t, hs, "/api/v2/jobs"+query, req, hdr)
				defer resp.Body.Close()
				return decodeV2Job(t, resp.Body)
			}
			var ids []string
			for _, key := range []string{"", "k"} {
				done := submit(SubmitRequest{Circuit: wide, Shots: 1000, User: "u"}, key+"done", "?wait=10s")
				if done.State != StateDone || len(done.Counts) < 40 {
					t.Fatalf("done job: %s with %d outcomes, want done with >= 40", done.State, len(done.Counts))
				}
				qpu.InjectFaults(1)
				failed := submit(SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "u"}, key+"failed", "?wait=10s")
				if failed.State != StateFailed || failed.Error == nil || !strings.Contains(failed.Error.Message, qpuName) {
					t.Fatalf("failed job: %s, error %+v; want failed naming %s", failed.State, failed.Error, qpuName)
				}
				if err := f.Drain("kelvin"); err != nil {
					t.Fatal(err)
				}
				cancelled := submit(SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "v", Priority: 3}, key+"cancelled", "")
				id, err := ParseJobID(cancelled.ID)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Cancel(id); err != nil {
					t.Fatal(err)
				}
				if err := f.Resume("kelvin"); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, done.ID, failed.ID, cancelled.ID)
			}
			before := make(map[string][]byte)
			for _, id := range ids {
				before[id] = get(t, hs, id)
			}
			// Frames reach the disk in LSN order, so an ack of a later
			// submission covers every terminal frame before it.
			submit(SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "w"}, "", "")

			st.Abandon() // kill -9
			hs.Close()
			f.Stop()
			_, hs2, _, _ := open(t, dir, mode)
			for _, id := range ids {
				after := get(t, hs2, id)
				recovered := bytes.Replace(after, []byte(`,"recovered":true`), nil, 1)
				if bytes.Equal(recovered, after) || !bytes.Equal(recovered, before[id]) {
					t.Errorf("job %s after the restart:\n%s\nbefore it, with \"recovered\":true added:\n%s", id, after, before[id])
				}
			}
		})
	}
}
