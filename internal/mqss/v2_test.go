package mqss

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
)

// pacedDevice is the name pacedStack's sole device registers under.
const pacedDevice = "garnet-20-twin"

// pacedStack builds a one-device twin fleet with a wall-clock execution
// latency — wide enough in-flight windows to race watches and cancellations
// into. With one worker, jobs run in submission order and twin counts are
// deterministic.
func pacedStack(t *testing.T, seed int64, latency time.Duration, workers int) (*fleet.Scheduler, *Server) {
	t.Helper()
	qpu := device.NewTwin20Q(seed)
	if latency > 0 {
		qpu.SetExecLatency(latency)
	}
	f := oneDeviceFleet(t, qpu, nil, workers)
	return f, NewFleetServer(f)
}

func postV2(t *testing.T, srv *httptest.Server, path string, body interface{}, header map[string]string) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeV2Job(t *testing.T, r io.Reader) *Job {
	t.Helper()
	var j Job
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return &j
}

func TestV2SubmitAsyncThenPoll(t *testing.T) {
	_, server := pacedStack(t, 50, 5*time.Millisecond, 2)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{
		Circuit: circuit.GHZ(4), Shots: 50, User: "async", Priority: 3,
	}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("202 response missing Location header")
	}
	job := decodeV2Job(t, resp.Body)
	if job.ID != "j-1" || job.State.Terminal() {
		t.Fatalf("submit body = %+v, want non-terminal j-1", job)
	}
	if job.Priority != 3 || job.User != "async" {
		t.Errorf("submit echo lost fields: %+v", job)
	}

	// Long-poll the Location until terminal.
	resp2, err := srv.Client().Get(srv.URL + loc + "?wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("poll status = %d", resp2.StatusCode)
	}
	final := decodeV2Job(t, resp2.Body)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%+v)", final.State, final.Error)
	}
	total := 0
	for _, n := range final.Counts {
		total += n
	}
	if total != 50 {
		t.Errorf("counts total = %d, want 50", total)
	}
	if final.Device == "" || final.CompiledGates == 0 {
		t.Errorf("unified record missing device/compile info: %+v", final)
	}
}

func TestV2SubmitWaitReturns200(t *testing.T) {
	_, server := pacedStack(t, 51, 0, 2)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	resp := postV2(t, srv, "/api/v2/jobs?wait=10s", SubmitRequest{
		Circuit: circuit.GHZ(3), Shots: 20, User: "sync",
	}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit?wait status = %d, want 200", resp.StatusCode)
	}
	if job := decodeV2Job(t, resp.Body); job.State != StateDone {
		t.Fatalf("state = %s, want done", job.State)
	}
}

func TestV2LongPollTimeoutKeepsJobQueued(t *testing.T) {
	// The only device is drained: the job waits queued and nothing will execute, so
	// the long-poll must time out and report it still queued — not hang,
	// not error.
	f, server := pacedStack(t, 52, 0, 1)
	if err := f.Drain(pacedDevice); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	start := time.Now()
	resp2, err := srv.Client().Get(srv.URL + "/api/v2/jobs/j-1?wait=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status = %d", resp2.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("long-poll returned after %v, want ~100ms", elapsed)
	}
	if job := decodeV2Job(t, resp2.Body); job.State != StateQueued {
		t.Errorf("state after timeout = %s, want queued", job.State)
	}
	if n := f.Metrics().QueueDepth; n != 1 {
		t.Errorf("queued jobs = %d, want 1 (long-poll must not consume the job)", n)
	}
}

func TestV2ErrorEnvelope(t *testing.T) {
	_, server := pacedStack(t, 53, 0, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	c := srv.Client()

	check := func(t *testing.T, resp *http.Response, status int, code string, retryable bool) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("status = %d, want %d", resp.StatusCode, status)
		}
		var e APIError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		if e.Code != code || e.Message == "" || e.Retryable != retryable {
			t.Errorf("envelope = %+v, want code=%s retryable=%v", e, code, retryable)
		}
	}

	resp, _ := c.Get(srv.URL + "/api/v2/jobs/not-an-id")
	check(t, resp, 400, CodeInvalidRequest, false)

	resp, _ = c.Get(srv.URL + "/api/v2/jobs/j-404")
	check(t, resp, 404, CodeNotFound, false)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/v2/jobs", nil)
	resp, _ = c.Do(req)
	check(t, resp, 405, CodeMethodNotAllowed, false)

	req, _ = http.NewRequest(http.MethodHead, srv.URL+"/api/v2/jobs/j-1", nil)
	resp, _ = c.Do(req)
	if resp.StatusCode != 405 {
		t.Errorf("HEAD job status = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()

	resp, _ = c.Get(srv.URL + "/api/v2/jobs?cursor=%21%21")
	check(t, resp, 400, CodeInvalidRequest, false)

	resp, _ = c.Get(srv.URL + "/api/v2/jobs?state=bogus")
	check(t, resp, 400, CodeInvalidRequest, false)

	resp = postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 0}, nil)
	check(t, resp, 422, CodeUnprocessable, false)

	resp = postV2(t, srv, "/api/v2/jobs", SubmitRequest{
		Circuit: circuit.GHZ(2), Shots: 5, Device: "nope",
	}, nil)
	check(t, resp, 422, CodeUnprocessable, false)

	resp = postV2(t, srv, "/api/v2/jobs", SubmitRequest{
		Circuit: circuit.GHZ(2), Shots: 5, Policy: "warp",
	}, nil)
	check(t, resp, 400, CodeInvalidRequest, false)

	// Cancel of a terminal job → conflict.
	resp = postV2(t, srv, "/api/v2/jobs?wait=10s", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5}, nil)
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/v2/jobs/"+job.ID, nil)
	resp, _ = c.Do(req)
	check(t, resp, 409, CodeConflict, false)
}

// TestV2NegativeDeadlineIsUnprocessable: deadline_ms below zero is a 422
// that mints no job, as zero shots is.
func TestV2NegativeDeadlineIsUnprocessable(t *testing.T) {
	f, server := pacedStack(t, 55, 0, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: -5}, nil)
	defer resp.Body.Close()
	var e APIError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != CodeUnprocessable || e.Retryable {
		t.Errorf("deadline_ms -5: %d %+v, want 422 unprocessable", resp.StatusCode, e)
	}
	if m := f.Metrics(); m.Submitted != 0 {
		t.Errorf("refused submission minted %d jobs", m.Submitted)
	}
}

func TestV2IdempotencyReplay(t *testing.T) {
	f, server := pacedStack(t, 54, 0, 2)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "idem"}
	hdr := map[string]string{"Idempotency-Key": "key-1"}

	resp := postV2(t, srv, "/api/v2/jobs", req, hdr)
	first := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Idempotency-Replayed") != "" {
		t.Error("first submission must not be marked replayed")
	}

	resp = postV2(t, srv, "/api/v2/jobs", req, hdr)
	second := decodeV2Job(t, resp.Body)
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("replay missing Idempotency-Replayed header")
	}
	resp.Body.Close()
	if first.ID != second.ID {
		t.Fatalf("replay returned %s, want original %s", second.ID, first.ID)
	}
	// A different key is a different job.
	resp = postV2(t, srv, "/api/v2/jobs", req, map[string]string{"Idempotency-Key": "key-2"})
	third := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if third.ID == first.ID {
		t.Error("distinct keys must not dedupe")
	}
	if snap := f.Metrics(); snap.Submitted != 2 {
		t.Errorf("submitted = %d, want 2 (one per distinct key)", snap.Submitted)
	}
}

func TestV2IdempotencyConcurrentSameKey(t *testing.T) {
	f, server := pacedStack(t, 55, 0, 2)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	const clients = 16
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{
				Circuit: circuit.GHZ(2), Shots: 5, User: "race",
			}, map[string]string{"Idempotency-Key": "contended"})
			var j Job
			_ = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("concurrent same-key submissions diverged: %v", ids)
		}
	}
	if snap := f.Metrics(); snap.Submitted != 1 {
		t.Errorf("submitted = %d, want exactly 1 (no double execution)", snap.Submitted)
	}
}

// gatedStore is a fleet.JobStore whose WaitDurable parks every caller until
// open is called — an fsync that takes as long as the test needs.
type gatedStore struct {
	lsn     atomic.Uint64
	waiting atomic.Int32
	release chan struct{}
	once    sync.Once
}

func (g *gatedStore) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedStore) JournalFleetJob(*fleet.Job) uint64 { return g.lsn.Add(1) }
func (g *gatedStore) WaitDurable(uint64) {
	g.waiting.Add(1)
	<-g.release
}

// waitFor polls until n submitters are parked inside WaitDurable.
func (g *gatedStore) waitFor(t *testing.T, n int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); g.waiting.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d submitters inside WaitDurable, want %d: a lock is held across the fsync wait", g.waiting.Load(), n)
		}
	}
}

// TestKeyedSubmitsShareTheDurabilityWait pins that no lock is held across
// the fsync wait: keyed submitters under different keys must be able to sit
// in WaitDurable together (that is what lets group commit batch them), and
// a same-key replay waits there too — it is never acked ahead of its
// original.
func TestKeyedSubmitsShareTheDurabilityWait(t *testing.T) {
	f, server := pacedStack(t, 57, 0, 2)
	gate := &gatedStore{release: make(chan struct{})}
	f.AttachStore(gate)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	t.Cleanup(gate.open) // runs first: a failed test must not leave srv.Close waiting on parked handlers

	type ack struct {
		id       string
		replayed bool
	}
	acks := make(chan ack, 4)
	post := func(key string) {
		resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{
			Circuit: circuit.GHZ(2), Shots: 5, User: "fsync",
		}, map[string]string{"Idempotency-Key": key})
		id := decodeV2Job(t, resp.Body).ID
		resp.Body.Close()
		acks <- ack{id, resp.Header.Get("Idempotency-Replayed") == "true"}
	}
	go post("key-a")
	go post("key-b")
	gate.waitFor(t, 2)
	go post("key-a") // a retry while the original's fsync is still pending
	gate.waitFor(t, 3)
	select {
	case a := <-acks:
		t.Fatalf("job %s (replayed %v) acked before its record was durable", a.id, a.replayed)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()

	byID := map[string][]bool{}
	for i := 0; i < 3; i++ {
		a := <-acks
		byID[a.id] = append(byID[a.id], a.replayed)
	}
	if len(byID) != 2 {
		t.Fatalf("three submissions under two keys made %d jobs: %v", len(byID), byID)
	}
	replays := 0
	for _, flags := range byID {
		for _, r := range flags {
			if r {
				replays++
			}
		}
	}
	if replays != 1 {
		t.Fatalf("want exactly one replayed ack, got %d: %v", replays, byID)
	}
	if snap := f.Metrics(); snap.Submitted != 2 {
		t.Errorf("submitted = %d, want 2", snap.Submitted)
	}
}

func TestV2ListCursorPagination(t *testing.T) {
	_, server := pacedStack(t, 56, 0, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	users := []string{"alice", "bob"}
	for i := 0; i < 7; i++ {
		resp := postV2(t, srv, "/api/v2/jobs?wait=5s", SubmitRequest{
			Circuit: circuit.GHZ(2), Shots: 5, User: users[i%2],
		}, nil)
		resp.Body.Close()
	}
	var seen []string
	cursor := ""
	pages := 0
	for {
		url := srv.URL + "/api/v2/jobs?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var page JobPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, j := range page.Jobs {
			seen = append(seen, j.ID)
			if j.Request != nil {
				t.Error("list pages must omit the request payload")
			}
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != 7 || pages != 3 || seen[0] != "j-7" || seen[6] != "j-1" {
		t.Fatalf("cursor walk = %v in %d pages", seen, pages)
	}
	// Filters: user + state.
	resp, err := srv.Client().Get(srv.URL + "/api/v2/jobs?user=alice&state=done&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var page JobPage
	_ = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if len(page.Jobs) != 4 {
		t.Errorf("alice/done jobs = %d, want 4", len(page.Jobs))
	}
	resp, err = srv.Client().Get(srv.URL + "/api/v2/jobs?state=queued,running&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if len(page.Jobs) != 0 {
		t.Errorf("queued/running after drain = %d, want 0", len(page.Jobs))
	}
}

// readEvents consumes NDJSON events until the stream closes, forwarding
// each on a channel.
func readEvents(t *testing.T, body io.Reader) []JobEvent {
	t.Helper()
	var out []JobEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		line = strings.TrimPrefix(line, "data: ")
		var ev JobEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

func TestV2WatchStreamNDJSON(t *testing.T) {
	_, server := pacedStack(t, 57, 20*time.Millisecond, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10}, nil)
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()

	wresp, err := srv.Client().Get(srv.URL + "/api/v2/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %s", ct)
	}
	evs := readEvents(t, wresp.Body)
	if len(evs) < 2 {
		t.Fatalf("events = %+v, want snapshot + transitions", evs)
	}
	if evs[0].Reason != "snapshot" {
		t.Errorf("first event reason = %q, want snapshot", evs[0].Reason)
	}
	last := evs[len(evs)-1]
	if last.State != StateDone {
		t.Errorf("final event state = %s, want done", last.State)
	}
	for _, ev := range evs {
		if ev.JobID != job.ID {
			t.Errorf("event for %s on a filtered stream for %s", ev.JobID, job.ID)
		}
	}
}

func TestV2WatchSSE(t *testing.T) {
	_, server := pacedStack(t, 58, 10*time.Millisecond, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5}, nil)
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v2/jobs/"+job.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	wresp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %s, want text/event-stream", ct)
	}
	raw, _ := io.ReadAll(wresp.Body)
	if !bytes.Contains(raw, []byte("data: ")) {
		t.Errorf("SSE body missing data: frames: %q", raw)
	}
	evs := readEvents(t, bytes.NewReader(raw))
	if len(evs) == 0 || evs[len(evs)-1].State != StateDone {
		t.Errorf("SSE events = %+v", evs)
	}
}

// TestV2SubmitWatchCancelRoundTrip is the acceptance round trip, driven
// through the context-aware client: submit async, watch the stream, cancel
// mid-flight, and observe the terminal cancelled state — all on the v2
// resource.
func TestV2SubmitWatchCancelRoundTrip(t *testing.T) {
	_, server := pacedStack(t, 59, 50*time.Millisecond, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	ctx := context.Background()
	c := NewRemoteClient(srv.URL, srv.Client())

	// A filler job keeps the single worker busy so ours stays cancellable.
	filler, err := c.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5}, "")
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "roundtrip"}, "rt-key")
	if err != nil {
		t.Fatal(err)
	}

	type watchResult struct {
		job *Job
		evs []JobEvent
		err error
	}
	watched := make(chan watchResult, 1)
	go func() {
		var evs []JobEvent
		job, err := h.Watch(ctx, func(ev JobEvent) { evs = append(evs, ev) })
		watched <- watchResult{job, evs, err}
	}()

	time.Sleep(10 * time.Millisecond) // let the watch attach
	if err := h.Cancel(ctx); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	res := <-watched
	if res.err != nil {
		t.Fatalf("watch: %v", res.err)
	}
	if res.job.State != StateCancelled {
		t.Fatalf("final state = %s, want cancelled (events: %+v)", res.job.State, res.evs)
	}
	if len(res.evs) == 0 || res.evs[len(res.evs)-1].State != StateCancelled {
		t.Errorf("watch events = %+v, want trailing cancelled", res.evs)
	}
	if _, err := filler.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestV2ConcurrentWatchersCancelStress is the -race workout the satellite
// asks for: many jobs, several watch subscribers per job, cancellations
// racing the dispatch pipeline. Every watcher must terminate and every job
// must land terminal with watchers agreeing on the final state.
func TestV2ConcurrentWatchersCancelStress(t *testing.T) {
	_, server := pacedStack(t, 60, 2*time.Millisecond, 4)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	ctx := context.Background()
	c := NewRemoteClient(srv.URL, srv.Client())

	const jobs = 24
	const watchersPerJob = 3
	handles := make([]*JobHandle, jobs)
	for i := range handles {
		h, err := c.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(2 + i%3), Shots: 5}, "")
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	finals := make([][]JobState, jobs)
	for i := range finals {
		finals[i] = make([]JobState, watchersPerJob)
	}
	var wg sync.WaitGroup
	for i, h := range handles {
		for w := 0; w < watchersPerJob; w++ {
			wg.Add(1)
			go func(i, w int, h *JobHandle) {
				defer wg.Done()
				wh, err := c.Handle(h.ID)
				if err != nil {
					t.Error(err)
					return
				}
				job, err := wh.Watch(ctx, nil)
				if err != nil {
					t.Errorf("watcher %d/%d: %v", i, w, err)
					return
				}
				finals[i][w] = job.State
			}(i, w, h)
		}
		if i%2 == 1 {
			wg.Add(1)
			go func(h *JobHandle) {
				defer wg.Done()
				_ = h.Cancel(ctx) // racing the pipeline; "already done" is fine
			}(h)
		}
	}
	wg.Wait()
	for i, h := range handles {
		job, err := h.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !job.State.Terminal() {
			t.Errorf("job %s stuck in %s", h.ID, job.State)
		}
		for w, st := range finals[i] {
			if st != job.State {
				t.Errorf("watcher %d of job %s saw %s, record says %s", w, h.ID, st, job.State)
			}
		}
	}
}

func TestV2DeadlineExceededEnvelope(t *testing.T) {
	// One paced worker: the filler holds it well past the second job's 1 ms
	// dispatch budget, so that job expires in the device queue.
	f, server := pacedStack(t, 61, 30*time.Millisecond, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5}, nil)
	resp.Body.Close()
	resp = postV2(t, srv, "/api/v2/jobs", SubmitRequest{
		Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: 1,
	}, nil)
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	f.WaitSettled()

	resp2, err := srv.Client().Get(srv.URL + "/api/v2/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	final := decodeV2Job(t, resp2.Body)
	if final.State != StateFailed || final.Error == nil ||
		final.Error.Code != CodeDeadlineExceeded || !final.Error.Retryable {
		t.Fatalf("expired job = %+v (err %+v), want failed/deadline_exceeded/retryable", final, final.Error)
	}
}

func TestV2ServerCloseEndsWatch(t *testing.T) {
	_, server := pacedStack(t, 62, 200*time.Millisecond, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	resp := postV2(t, srv, "/api/v2/jobs", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5}, nil)
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()

	done := make(chan []JobEvent, 1)
	wresp, err := srv.Client().Get(srv.URL + "/api/v2/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wresp.Body.Close()
		done <- readEvents(t, wresp.Body)
	}()
	time.Sleep(10 * time.Millisecond)
	server.Close()
	server.Close() // idempotent
	select {
	case evs := <-done:
		if len(evs) == 0 || evs[len(evs)-1].Reason != "server-closing" {
			t.Errorf("stream should end with server-closing, got %+v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not end on server Close")
	}
}

func TestV2FleetSubmitWatchCancel(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{
		"alpha": twinDev(t, "alpha", 4, 5, 71),
		"beta":  twinDev(t, "beta", 3, 3, 72),
	}, 2)
	server := NewFleetServer(f)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	ctx := context.Background()
	c := NewRemoteClient(srv.URL, srv.Client())

	// Routed submit + wait: the unified record carries placement + score.
	h, err := c.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "fleet"}, "")
	if err != nil {
		t.Fatal(err)
	}
	job, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone || job.Device == "" || job.Score == 0 {
		t.Fatalf("fleet v2 record = %+v", job)
	}

	// Hold a pinned job in the queue by draining its device, watch it,
	// cancel it: the cancellation must reach the fleet's queue.
	if err := f.Drain("beta"); err != nil {
		t.Fatal(err)
	}
	ph, err := c.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, Device: "beta"}, "")
	if err != nil {
		t.Fatal(err)
	}
	held, err := ph.Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if held.State != StateQueued || held.Pinned != "beta" {
		t.Fatalf("pinned job on drained device = %+v, want queued/pinned", held)
	}
	watched := make(chan *Job, 1)
	go func() {
		wh, _ := c.Handle(ph.ID)
		job, err := wh.Watch(ctx, nil)
		if err != nil {
			t.Error(err)
		}
		watched <- job
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ph.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case job := <-watched:
		if job == nil || job.State != StateCancelled {
			t.Fatalf("queued-cancel final = %+v, want cancelled", job)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch of queued job never terminated after cancel")
	}
}

// TestV2FleetMigrationEvents: the watch surface reports moves as they
// happen. A drain moves nothing — the device stops claiming and the queued
// jobs finish on the sibling with no migration and no migrated event. A
// device that fails under a running job sends that job back to the queue
// (the migrated event), and it finishes on the sibling.
func TestV2FleetMigrationEvents(t *testing.T) {
	alpha := twinDev(t, "alpha", 4, 5, 73)
	alpha.QPU().SetExecLatency(30 * time.Millisecond)
	// Only alpha is registered at submission time, so it claims the first
	// job deterministically; beta joins before the drain and takes the rest.
	f := newTestFleet(t, map[string]*qdmi.Device{"alpha": alpha}, 1)
	server := NewFleetServer(f)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	ctx := context.Background()
	c := NewRemoteClient(srv.URL, srv.Client())

	watch := func(h *JobHandle) func() []JobEvent {
		var mu sync.Mutex
		var evs []JobEvent
		done := make(chan struct{})
		go func() {
			defer close(done)
			wh, _ := c.Handle(h.ID)
			_, _ = wh.Watch(ctx, func(ev JobEvent) {
				mu.Lock()
				evs = append(evs, ev)
				mu.Unlock()
			})
		}()
		return func() []JobEvent {
			<-done
			mu.Lock()
			defer mu.Unlock()
			return evs
		}
	}
	submit := func() *JobHandle {
		h, err := c.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "mig"}, "")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	var handles []*JobHandle
	for i := 0; i < 4; i++ {
		handles = append(handles, submit())
	}
	drained := watch(handles[3])
	time.Sleep(10 * time.Millisecond)
	if err := f.AddDevice("beta", twinDev(t, "beta", 4, 5, 74), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain("alpha"); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		job, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != StateDone || job.Migrations != 0 {
			t.Errorf("job %s = %s after %d migrations, want done after none", h.ID, job.State, job.Migrations)
		}
	}
	for _, ev := range drained() {
		if ev.Reason == "migrated" {
			t.Errorf("the drain published a migrated event: %+v", ev)
		}
	}
	if job, _ := handles[3].Poll(ctx); job.Device != "beta" {
		t.Errorf("job queued behind the drain ran on %q, want beta", job.Device)
	}

	// Failover: alpha back in rotation alone, a fault armed for its next
	// execution, and the device failed while that execution is on the QPU.
	if err := f.Drain("beta"); err != nil {
		t.Fatal(err)
	}
	if err := f.Resume("alpha"); err != nil {
		t.Fatal(err)
	}
	alpha.QPU().InjectFaults(1)
	h := submit()
	failed := watch(h)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if job, err := h.Poll(ctx); err == nil && job.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached alpha's QPU")
		}
	}
	if err := f.Fail("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := f.Resume("beta"); err != nil {
		t.Fatal(err)
	}
	job, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone || job.Device != "beta" || job.Migrations != 1 {
		t.Errorf("failed-over job = %s on %q after %d migrations, want done on beta after 1", job.State, job.Device, job.Migrations)
	}
	sawMigration := false
	for _, ev := range failed() {
		if ev.Reason == "migrated" {
			sawMigration = true
			if ev.Device != "alpha" || ev.State != StateQueued {
				t.Errorf("migration event = %+v, want back to queued off alpha", ev)
			}
		}
	}
	if !sawMigration {
		t.Error("no migration event for the failed-over job")
	}
}
