package mqss

// Multi-tenant admission behavior through the real HTTP stack: the token
// bucket refusing with 429/Retry-After, the client absorbing retryable
// refusals (rate_limited, shed, interrupted) into one slow submission, and
// the WFQ fairness property under overload.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/tenant"
)

// TestClientAbsorbsRateLimit: a burst past the token bucket surfaces to the
// caller as slower submissions, never as errors — the client honors
// Retry-After and backs off until admitted.
func TestClientAbsorbsRateLimit(t *testing.T) {
	_, server := pacedStack(t, 96, 0, 2)
	server.SetTenantLimits(50, 3) // 3-deep bucket: the 4th burst submit throttles
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, srv.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		h, err := client.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "burst"}, "")
		if err != nil {
			t.Fatalf("submit %d surfaced a rate-limit error: %v", i, err)
		}
		job, err := h.Wait(ctx)
		if err != nil || job.State != StateDone {
			t.Fatalf("job %d: %v %+v", i, err, job)
		}
	}

	ts, err := client.TenantsStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Limiter == nil || ts.Limiter.Rate != 50 || ts.Limiter.Burst != 3 {
		t.Fatalf("limiter config not exposed: %+v", ts.Limiter)
	}
	if len(ts.Tenants) != 1 || ts.Tenants[0].User != "burst" {
		t.Fatalf("tenant rows wrong: %+v", ts.Tenants)
	}
	row := ts.Tenants[0]
	if row.Throttled == 0 {
		t.Error("burst of 4 against a 3-deep bucket should have throttled")
	}
	if row.Allowed != 4 || row.Submitted != 4 || row.Completed != 4 {
		t.Errorf("admitted accounting wrong: %+v", row)
	}
}

// TestNoUnmeteredSubmitRoute: the token bucket guards the only way in. With
// a tenant's bucket exhausted, a POST of a valid submission to every route
// the server registers outside /api/v2/jobs — the tombstoned v1 job paths
// included — creates no job, and /api/v2/jobs itself refuses with 429.
func TestNoUnmeteredSubmitRoute(t *testing.T) {
	f, server := pacedStack(t, 97, 0, 1)
	server.SetTenantLimits(0.001, 1) // one token, then ~17 min to the next
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	one := `{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"user":"hog"}`
	post := func(path, body string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := post(pathV2Jobs, one); st != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", st)
	}
	if st := post(pathV2Jobs, one); st != http.StatusTooManyRequests {
		t.Fatalf("over-quota v2 submit = %d, want 429", st)
	}
	for _, path := range []string{"/api/v1/jobs", "/api/v1/jobs?policy=round-robin", "/api/v1/jobs/1"} {
		if st := post(path, one); st != http.StatusGone {
			t.Errorf("POST %s = %d, want 410", path, st)
		}
	}
	for _, path := range []string{"/api/v1/jobs/batch", "/api/v1/jobs/batch?stream=1"} {
		if st := post(path, "["+one+"]"); st != http.StatusGone {
			t.Errorf("POST %s = %d, want 410", path, st)
		}
	}
	for _, path := range []string{
		pathDevice, pathFleet, pathMetrics, pathHealthz, pathMetricsProm,
		pathV2AdminStore, pathV2AdminTenants, pathV2Federation + "/status",
	} {
		post(path, one) // whatever it answers, the counter below must not move
	}
	if n := f.Metrics().Submitted; n != 1 {
		t.Fatalf("scheduler saw %d submissions, want only the admitted one", n)
	}
}

// TestClientResubmitsShedJob: jobs evicted by admission control fail with a
// retryable shed envelope, and Wait transparently resubmits until the queue
// has room — conservation holds and the caller sees only completions.
func TestClientResubmitsShedJob(t *testing.T) {
	m, server := pacedStack(t, 97, 20*time.Millisecond, 1)
	m.SetAdmission(tenant.Admission{MaxTenantQueue: 1})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, srv.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var handles []*JobHandle
	for i := 0; i < 4; i++ {
		h, err := client.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "shedder"}, "")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		job, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if job.State != StateDone {
			t.Fatalf("job %d settled %s (%+v) despite transparent resubmission", i, job.State, job.Error)
		}
	}
	if shed := m.Metrics().Shed; shed == 0 {
		t.Error("a 4-job burst into a 1-deep tenant queue should have shed")
	}
	// Conservation at the queue: everything submitted is accounted.
	u := m.TenantUsage()
	if len(u) != 1 {
		t.Fatalf("tenant rows: %+v", u)
	}
	row := u[0]
	if row.Submitted != row.Completed+row.Failed+row.Cancelled+row.Shed+uint64(row.Queued) {
		t.Errorf("conservation broke: %+v", row)
	}
}

// TestPlainPostOfSettledJobIs202: a POST without ?wait answers 202 even when
// its job is terminal by the time the handler reads the record back. Here
// the device is drained and the tenant's queue holds one job, so the second
// job is shed at its own mint. A ?wait POST of the same kind answers 200:
// the long-poll caught the final word.
func TestPlainPostOfSettledJobIs202(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{"solo": twinDev(t, "solo", 4, 5, 1)}, 1)
	if err := f.Drain("solo"); err != nil {
		t.Fatal(err)
	}
	f.SetAdmission(tenant.Admission{MaxTenantQueue: 1})
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	req := SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "one"}
	for _, c := range []struct {
		path    string
		status  int
		state   JobState
		errCode string
	}{
		{"/api/v2/jobs", http.StatusAccepted, StateQueued, ""},
		{"/api/v2/jobs", http.StatusAccepted, StateFailed, CodeShed},
		{"/api/v2/jobs?wait=5s", http.StatusOK, StateFailed, CodeShed},
	} {
		resp := postV2(t, srv, c.path, req, nil)
		job := decodeV2Job(t, resp.Body)
		resp.Body.Close()
		errCode := ""
		if job.Error != nil {
			errCode = job.Error.Code
		}
		if resp.StatusCode != c.status || job.State != c.state || errCode != c.errCode {
			t.Errorf("POST %s: %d %s %q, want %d %s %q", c.path, resp.StatusCode, job.State, errCode, c.status, c.state, c.errCode)
		}
	}
}

// slowDurableStack is durableStack with an execution latency on the
// devices, so jobs are still in flight when the test kills the node.
func slowDurableStack(t *testing.T, dir string, latency time.Duration) (*fleet.Scheduler, *Server, *durable.Store) {
	t.Helper()
	st, opened, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	for name, seed := range map[string]int64{"alpha": 61, "beta": 62} {
		qpu, err := device.New(device.Config{Name: name, Rows: 4, Cols: 5, Seed: seed, DigitalTwin: true})
		if err != nil {
			t.Fatal(err)
		}
		if latency > 0 {
			qpu.SetExecLatency(latency)
		}
		if err := f.AddDevice(name, qdmi.NewDevice(qpu, nil), 2); err != nil {
			t.Fatal(err)
		}
	}
	server := NewFleetServer(f)
	if _, err := server.AttachStore(st, opened); err != nil {
		t.Fatal(err)
	}
	return f, server, st
}

// TestClientConvergesAcrossRestartInterruption is the satellite regression
// for PR 8's retryable interrupted envelope: a job caught by a restart —
// its dispatch deadline passing during recovery — lands as a retryable
// failure, and the client's Wait resubmits it without caller intervention.
func TestClientConvergesAcrossRestartInterruption(t *testing.T) {
	dir := t.TempDir()

	// The client talks to a stable URL fronting whichever incarnation is
	// alive, like a restarted node keeping its address.
	var handler atomic.Value // http.Handler
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)

	f1, server1, st1 := slowDurableStack(t, dir, 300*time.Millisecond)
	handler.Store(http.Handler(server1))
	client := NewRemoteClient(hs.URL, hs.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	h, err := client.Submit(ctx, SubmitRequest{
		Circuit: circuit.GHZ(3), Shots: 10, User: "restart", DeadlineMs: 60,
	}, "restart-key")
	if err != nil {
		t.Fatal(err)
	}

	// kill -9 while the job is in flight; by the time the node is back its
	// dispatch deadline has long passed, so recovery interrupts it.
	time.Sleep(100 * time.Millisecond)
	st1.Abandon()
	server1.Close()
	f1.Stop()

	f2, server2, st2 := slowDurableStack(t, dir, 0)
	t.Cleanup(func() { server2.Close(); f2.Stop(); st2.Close() })
	handler.Store(http.Handler(server2))

	// Sanity: the restored record really is the retryable interruption (a
	// fresh handle shows what a non-retrying caller would have seen).
	raw, err := client.V2Job(ctx, h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if raw.State != StateFailed || raw.Error == nil || raw.Error.Code != CodeInterrupted || !raw.Error.Retryable {
		t.Fatalf("restored record should be retryable interrupted, got %+v err=%+v", raw.State, raw.Error)
	}

	// The original handle converges on its own: Wait sees the interrupted
	// record, resubmits, and returns the completed rerun.
	job, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("client did not converge across the restart: %s %+v", job.State, job.Error)
	}
	if job.ID == raw.ID {
		t.Error("converged record should be a fresh submission, not the interrupted one")
	}
}

// TestWFQFairnessUnderOverload is the fairness property test: K tenants
// with unequal offered load (one at triple share) submit through the real
// HTTP stack into a backlogged fleet of one-worker devices — one device, and
// two identical ones claiming from the same queue. Weighted-fair claiming
// with equal weights must give each tenant an equal completion share while
// everyone is backlogged — the hog's extra load waits, and no tenant's share
// collapses to zero.
func TestWFQFairnessUnderOverload(t *testing.T) {
	for _, devices := range []int{1, 2} {
		t.Run(fmt.Sprintf("devices-%d", devices), func(t *testing.T) { wfqFairness(t, devices) })
	}
}

func wfqFairness(t *testing.T, devices int) {
	// Identical twins (one seed) score alike, so every device claims.
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	var qpus []*device.QPU
	for i := 0; i < devices; i++ {
		qpu, err := device.New(device.Config{Name: fmt.Sprintf("wfq-%d", i), Rows: 4, Cols: 5, Seed: 95, DigitalTwin: true})
		if err != nil {
			t.Fatal(err)
		}
		qpu.SetExecLatency(200 * time.Millisecond)
		if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), 1); err != nil {
			t.Fatal(err)
		}
		qpus = append(qpus, qpu)
	}
	stopAndAuditAtCleanup(t, f)
	server := NewFleetServer(f)
	// Build the backlog first: with every device drained, every job waits.
	for _, qpu := range qpus {
		if err := f.Drain(qpu.Name()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, srv.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	load := map[string]int{"hog": 60, "t-1": 20, "t-2": 20, "t-3": 20}
	users := make([]string, 0, len(load))
	for u := range load {
		users = append(users, u)
	}
	sort.Strings(users)
	total := 0
	var subs []*fleet.Subscription
	for _, u := range users {
		for i := 0; i < load[u]; i++ {
			h, err := client.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: u}, "")
			if err != nil {
				t.Fatal(err)
			}
			total++
			// A watch of each job records its true completion order by the
			// event's Seq (the simulation clock stamps identical jobs with
			// identical EndTimes, so records alone cannot order them).
			id, err := ParseJobID(h.ID)
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, sub, err := f.Watch(id, 4)
			if err != nil || sub == nil {
				t.Fatalf("watch of queued job %d: %v, %v", id, sub, err)
			}
			defer sub.Close()
			subs = append(subs, sub)
		}
	}

	// The one job each worker claims on Resume is held by the long latency,
	// which then drops so the full backlog drains under WFQ.
	for _, qpu := range qpus {
		if err := f.Resume(qpu.Name()); err != nil {
			t.Fatal(err)
		}
	}
	for _, qpu := range qpus {
		qpu.SetExecLatency(2 * time.Millisecond)
	}
	f.WaitSettled()

	// Every job is sealed, so every feed is closed after its terminal event.
	var dones []fleet.Event
	for _, sub := range subs {
		for ev := range sub.Events() {
			if ev.To == fleet.JobDone {
				dones = append(dones, ev)
			}
		}
	}
	if len(dones) < total {
		t.Fatalf("only %d/%d completions observed", len(dones), total)
	}
	sort.Slice(dones, func(i, j int) bool { return dones[i].Seq < dones[j].Seq })
	var finished []string // tenant per completion, in completion order
	for _, ev := range dones {
		j, err := f.Job(ev.JobID)
		if err != nil {
			t.Fatal(err)
		}
		finished = append(finished, j.Request.User)
	}

	// Measure each tenant's share of the first 40 completions — the window
	// where every tenant was still backlogged.
	window := finished[:40]
	share := map[string]int{}
	for _, d := range window {
		share[d]++
	}
	for _, u := range users {
		if share[u] < 6 || share[u] > 14 {
			t.Errorf("tenant %s completion share %d/40 outside fair band [6,14] (shares: %v)",
				u, share[u], share)
		}
	}
	// Explicit anti-starvation check on the earliest window.
	early := map[string]int{}
	for _, d := range finished[:20] {
		early[d]++
	}
	for _, u := range users {
		if early[u] == 0 {
			t.Errorf("tenant %s starved out of the first 20 completions (%v)", u, early)
		}
	}
	for _, d := range f.Metrics().Devices {
		if d.Completed == 0 {
			t.Errorf("device %s claimed nothing from the shared queue", d.Name)
		}
	}
}
