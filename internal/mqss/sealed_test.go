package mqss

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/tenant"
	"repro/internal/transpile"
)

// liveCapture is a JobStore that journals nothing and keeps a copy of each
// job as it turns terminal: the terminal transition is the last write of a
// job, so the copy is the live job just before the scheduler seals it.
type liveCapture struct {
	mu   sync.Mutex
	live map[int]fleet.Job
}

func (c *liveCapture) JournalFleetJob(*fleet.Job) uint64 { return 0 }
func (c *liveCapture) JournalFleetUpdate(j *fleet.Job, _ []byte) uint64 {
	if j.Status.Terminal() {
		c.mu.Lock()
		c.live[j.ID] = *j
		c.mu.Unlock()
	}
	return 0
}
func (c *liveCapture) WaitDurable(uint64) {}

// TestSealedRecordMatchesLive holds a sealed job to the job it was sealed
// from, on every way a job turns terminal: what the v2 API writes for it —
// GET, the POST record (and an Idempotency-Key replay), a list page and a
// watch snapshot — must be the bytes it wrote for the live job, and Job must
// decode the record to the same job record.
func TestSealedRecordMatchesLive(t *testing.T) {
	ghz := func(user string) qrm.Request {
		return qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, User: user}
	}
	submit := func(t *testing.T, f *fleet.Scheduler, r qrm.Request, opts fleet.SubmitOptions) int {
		t.Helper()
		id, err := f.Submit(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	wait := func(t *testing.T, f *fleet.Scheduler, id int) {
		t.Helper()
		if _, err := f.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	// whenRouted waits until a worker holds job id.
	whenRouted := func(t *testing.T, f *fleet.Scheduler, id int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if j, err := f.Job(id); err == nil && (j.Status == fleet.JobRouted || j.Status == fleet.JobRunning) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d was never claimed", id)
			}
		}
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// restoredDone is a terminal job as the store hands it back after a
	// restart: Restore seals it at once, as the job it keeps live today
	// would read, recovered.
	restoredDone := &fleet.Job{
		ID: 3, Status: fleet.JobDone, Device: "a", Score: 0.875, Pinned: "a",
		Request: qrm.Request{Circuit: circuit.GHZ(3), Shots: 7, Priority: 2, User: `a "quoted" <user>`, DeadlineMs: 2.5},
		Result: &fleet.Result{
			CompiledGates: 5, CZCount: 2, Layout: transpile.Layout{1, 0, 2}, CompileStats: "2q 2→2 cz",
			Counts: circuit.Counts{0: 4, 7: 3}, DurationUs: 12.25, SubmitTime: 86400, EndTime: 86400.5,
		},
		SubmitUnixMs: 1_700_000_000_000, Node: "node-a", IdemKey: "restored-key",
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, f *fleet.Scheduler, qa *device.QPU) (restored map[int]fleet.Job)
	}{
		{name: "done", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			wait(t, f, submit(t, f, ghz("u"), fleet.SubmitOptions{}))
			return nil
		}},
		{name: "failed: shed", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			must(t, f.Drain("a"))
			f.SetAdmission(tenant.Admission{HighWater: 1})
			submit(t, f, ghz("u"), fleet.SubmitOptions{})
			r := ghz("v")
			r.Priority = 1 // outranks the first job, which is shed
			submit(t, f, r, fleet.SubmitOptions{})
			must(t, f.Resume("a"))
			return nil
		}},
		{name: "failed: deadline exceeded", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			must(t, f.Drain("a"))
			r := ghz("u")
			r.DeadlineMs = 1
			id := submit(t, f, r, fleet.SubmitOptions{})
			time.Sleep(5 * time.Millisecond)
			must(t, f.Resume("a"))
			wait(t, f, id)
			return nil
		}},
		{name: "failed: interrupted, and restored", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			queued := &fleet.Job{ID: 5, Status: fleet.JobQueued, Request: ghz("r"), SubmitUnixMs: time.Now().UnixMilli(), IdemKey: "requeued-key"}
			expired := &fleet.Job{ID: 7, Status: fleet.JobRouted, Device: "a", Request: ghz("r"), SubmitUnixMs: time.Now().Add(-time.Hour).UnixMilli()}
			expired.Request.DeadlineMs = 1
			if _, err := f.Restore([]*fleet.Job{restoredDone, queued, expired}); err != nil {
				t.Fatal(err)
			}
			wait(t, f, 5)
			live := *restoredDone
			live.Recovered = true
			return map[int]fleet.Job{3: live}
		}},
		{name: "failed: execute", run: func(t *testing.T, f *fleet.Scheduler, qa *device.QPU) map[int]fleet.Job {
			qa.InjectFaults(1)
			wait(t, f, submit(t, f, ghz("u"), fleet.SubmitOptions{}))
			return nil
		}},
		{name: "compile failure", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			must(t, f.Drain("a"))
			// Pinned, so that "b" cannot claim the job while its circuit is
			// written.
			id := submit(t, f, ghz("u"), fleet.SubmitOptions{Device: "a"})
			j, _ := f.Job(id) // shares the queued job's circuit
			j.Request.Circuit.Gates[0].Name = "bogus"
			must(t, f.Resume("a"))
			wait(t, f, id)
			return nil
		}},
		{name: "cancelled while queued", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			must(t, f.Drain("a"))
			// Pinned, so that "b" cannot claim and finish it first.
			must(t, f.Cancel(submit(t, f, ghz("u"), fleet.SubmitOptions{Device: "a"})))
			must(t, f.Resume("a"))
			return nil
		}},
		{name: "cancelled in flight", run: func(t *testing.T, f *fleet.Scheduler, qa *device.QPU) map[int]fleet.Job {
			qa.SetExecLatency(50 * time.Millisecond)
			id := submit(t, f, ghz("u"), fleet.SubmitOptions{})
			whenRouted(t, f, id)
			must(t, f.Cancel(id))
			wait(t, f, id)
			return nil
		}},
		{name: "migrated then done", run: func(t *testing.T, f *fleet.Scheduler, qa *device.QPU) map[int]fleet.Job {
			qa.SetExecLatency(50 * time.Millisecond)
			qa.InjectFaults(1)
			must(t, f.Drain("b"))
			id := submit(t, f, ghz("u"), fleet.SubmitOptions{})
			whenRouted(t, f, id)
			must(t, f.Fail("a")) // the run fails on a failed device: a failover
			must(t, f.Resume("b"))
			wait(t, f, id)
			if j, _ := f.Job(id); j.Migrations != 1 || j.Device != "b" || j.Status != fleet.JobDone {
				t.Fatalf("job %d: %+v, want done on b after one migration", id, j)
			}
			return nil
		}},
		{name: "federation node stamp", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			f.SetOwner("node-x", 5000, 6000)
			wait(t, f, submit(t, f, ghz("u"), fleet.SubmitOptions{Device: "a"}))
			return nil
		}},
		{name: "keyed and replayed", run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) map[int]fleet.Job {
			id := submit(t, f, ghz("u"), fleet.SubmitOptions{IdemKey: "k-1"})
			wait(t, f, id)
			if again := submit(t, f, ghz("u"), fleet.SubmitOptions{IdemKey: "k-1"}); again != id {
				t.Fatalf("replay minted %d, want %d", again, id)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qa, err := device.New(device.Config{Name: "a", Rows: 2, Cols: 2, Seed: 1, DigitalTwin: true})
			must(t, err)
			f := newTestFleet(t, map[string]*qdmi.Device{"a": qdmi.NewDevice(qa, nil), "b": twinDev(t, "b", 2, 2, 2)}, 1)
			f.AdvanceTo(1)
			capture := &liveCapture{live: map[int]fleet.Job{}}
			f.AttachStore(capture)
			want := tc.run(t, f, qa)
			f.WaitSettled()
			capture.mu.Lock()
			for id, j := range capture.live {
				if want == nil {
					want = map[int]fleet.Job{}
				}
				want[id] = j
			}
			capture.mu.Unlock()
			if len(want) == 0 {
				t.Fatal("no job turned terminal")
			}
			srv := httptest.NewServer(NewFleetServer(f))
			t.Cleanup(srv.Close)
			checkSealed(t, f, srv, want)
		})
	}
}

// checkSealed compares every job of f, all sealed, with want, its live form
// just before it was sealed.
func checkSealed(t *testing.T, f *fleet.Scheduler, srv *httptest.Server, want map[int]fleet.Job) {
	t.Helper()
	get := func(path string, header map[string]string) []byte {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}
	record := func(j *Job) []byte {
		b, err := j.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	fromLive := func(j fleet.Job, withRequest bool) *Job {
		out, err := v2FromView(fleet.View{Live: &j}, withRequest)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	same := func(what string, id int, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("job %d %s, sealed:\n%s\nlive:\n%s", id, what, got, want)
		}
	}

	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	page := &JobPage{}
	for _, id := range ids {
		live := want[id]
		v, err := f.View(id, true, nil)
		if err != nil || v.Live != nil {
			t.Fatalf("job %d: view %+v, %v; want it sealed", id, v, err)
		}
		path := "/api/v2/jobs/" + FormatJobID(id)
		same("GET", id, get(path, nil), record(fromLive(live, true)))

		sealed, err := v2FromView(v, false)
		if err != nil {
			t.Fatal(err)
		}
		same("POST record", id, record(sealed), record(fromLive(live, false)))
		if live.IdemKey != "" {
			r := live.Request // a keyed retry resends the request the key is bound to
			resp := postV2(t, srv, pathV2Jobs, SubmitRequest{Circuit: r.Circuit, Shots: r.Shots, User: r.User, Priority: r.Priority,
				DeadlineMs: r.DeadlineMs, StaticPlacement: r.StaticPlacement, Device: live.Pinned},
				map[string]string{"Idempotency-Key": live.IdemKey})
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.Header.Get("Idempotency-Replayed") != "true" {
				t.Errorf("job %d: POST under its key was not replayed", id)
			}
			same("POST replay", id, body, record(fromLive(live, false)))
		}

		ev, _ := json.Marshal(JobEvent{JobID: FormatJobID(id), State: live.Status, Device: live.Device, Reason: "snapshot"})
		same("watch", id, get(path+"/events", nil), append(ev, '\n'))
		same("watch (SSE)", id, get(path+"/events", map[string]string{"Accept": "text/event-stream"}),
			append(append([]byte("data: "), ev...), "\n\n"...))

		decoded, err := f.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := decoded.AppendJSON(nil)
		wantJSON, _ := live.AppendJSON(nil)
		same("Job", id, gotJSON, wantJSON)
		if decoded.SubmitUnixMs != live.SubmitUnixMs {
			t.Errorf("job %d Job: SubmitUnixMs %d, want %d", id, decoded.SubmitUnixMs, live.SubmitUnixMs)
		}
		if !reflect.DeepEqual(decoded.Result, live.Result) {
			t.Errorf("job %d Job: result %+v, want %+v", id, decoded.Result, live.Result)
		}
		page.Jobs = append(page.Jobs, fromLive(live, false))
	}
	var wantPage bytes.Buffer
	if err := json.NewEncoder(&wantPage).Encode(page); err != nil {
		t.Fatal(err)
	}
	same("list page", 0, get(pathV2Jobs+"?limit=100", nil), wantPage.Bytes())
}

func TestJobEventJSONMatchesReflection(t *testing.T) {
	type plainEvent JobEvent
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		var ev JobEvent
		fillRandom(rng, reflect.ValueOf(&ev).Elem())
		got := ev.AppendJSON(nil)
		want, err := json.Marshal((*plainEvent)(&ev))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("event %d encodes\n%s\nencoding/json writes (%v)\n%s", i, got, err, want)
		}
	}
}

type nopFlusher struct{}

func (nopFlusher) Flush() {}

// TestWatchLineAllocs gates a watch stream's line: the event is written by
// hand into the stream's own buffer, so a line allocates nothing.
func TestWatchLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race; CI runs this gate as its own non-race step")
	}
	ev := JobEvent{Seq: 12, JobID: "j-7", State: StateRunning, Device: "garnet-20", Reason: "migrated"}
	for _, sse := range []bool{false, true} {
		out := watchWriter{w: io.Discard, flusher: nopFlusher{}, sse: sse}
		out.line(&ev) // the buffer grows once
		if allocs := testing.AllocsPerRun(100, func() { out.line(&ev) }); allocs > 0 {
			t.Errorf("watch line (sse %v): %.0f allocs, want 0 (json.Encoder took 1 per line)", sse, allocs)
		}
	}
}

// TestWatchOfFinishedJobSubscribesNothing: a watch of a terminal job is its
// snapshot line alone, so it takes no bus subscription, whose 32-event
// channel was most of what such a watch allocated.
func TestWatchOfFinishedJobSubscribesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race; CI runs this gate as its own non-race step")
	}
	f := newTestFleet(t, map[string]*qdmi.Device{"a": twinDev(t, "a", 2, 2, 9)}, 1)
	server := NewFleetServer(f)
	id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5}, fleet.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.WaitSettled()
	r := httptest.NewRequest(http.MethodGet, pathV2Jobs+"/"+FormatJobID(id)+"/events", nil)
	w := &discardWriter{h: http.Header{}}
	server.ServeHTTP(w, r)
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		server.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	channel := float64(32 * unsafe.Sizeof(fleet.Event{}))
	t.Logf("watch of a done job: %.0f B allocated; a subscription's channel is %.0f B", per, channel)
	if per >= channel {
		t.Errorf("watch of a done job allocates %.0f B, want < %.0f B, the channel of the subscription it should not take", per, channel)
	}
}

// TestMetricsReportRetention pushes 20 000 jobs through a server's fleet,
// each with its own 200-B Idempotency-Key, and reads what the node holds
// from its Prometheus text alone. The first 4 000 fill the bounded tables
// (the trace ring and the idempotency window above all); over the other
// 16 000 the live heap grows by neither the records nor the index entries,
// which are off the collector's heap (the arena's chunks and the index's
// pages are mapped, fleet/arena_mmap.go). The key is stored in each
// record's own part, so a record is too large to hide under the live-heap
// bound if it were on the heap, and the bound is low enough that the
// index's 40-B entries fail it too.
func TestMetricsReportRetention(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{"a": twinDev(t, "a", 2, 2, 9)}, 2)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	// The fleet settles every burst jobs. The live-job map and the queue
	// keep the capacity of the deepest backlog they held, so an unbounded
	// backlog in the measured span would read as retention.
	const jobs, window, warm, burst, keyLen = 20000, 1024, 4000, 500, 200
	pad := strings.Repeat("k", keyLen)
	var live0, records0 float64
	for i := 0; i < jobs; i++ {
		if i == warm {
			f.WaitSettled()
			runtime.GC()
			body := scrapeMetrics(t, srv)
			live0, records0 = sampleOf(t, body, "qhpc_go_heap_live_bytes"), sampleOf(t, body, "qhpc_job_records_bytes")
		}
		if i%burst == 0 {
			f.WaitSettled()
		}
		key := fmt.Sprintf("%d-%s", i, pad)[:keyLen] // unique: the index leads
		if _, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, User: "m"}, fleet.SubmitOptions{IdemKey: key}); err != nil {
			t.Fatal(err)
		}
	}
	f.WaitSettled()
	runtime.GC()
	body := scrapeMetrics(t, srv)
	checkExposition(t, body)
	sample := func(series string) float64 {
		t.Helper()
		return sampleOf(t, body, series)
	}
	if got := sample(`qhpc_jobs_retained{state="sealed"}`); got != jobs {
		t.Errorf("sealed jobs = %v, want %d", got, jobs)
	}
	for _, st := range []string{"queued", "routed"} {
		if got := sample(fmt.Sprintf(`qhpc_jobs_retained{state=%q}`, st)); got != 0 {
			t.Errorf("live %s jobs = %v, want 0 once settled", st, got)
		}
	}
	for _, st := range []string{"done", "failed", "cancelled"} {
		if series := fmt.Sprintf(`qhpc_jobs_retained{state=%q}`, st); strings.Contains(body, series) {
			t.Errorf("/metrics writes %s: no live job is terminal, so it can only read 0", series)
		}
	}
	if got := sample("qhpc_idempotency_keys_retained"); got != window {
		t.Errorf("idempotency keys retained = %v after %d keyed jobs, want the window's %d", got, jobs, window)
	}
	// A job stores its record's own part — its key, two counts, two clock
	// readings, the back-reference to the shared part — in ~226 B; the
	// shared parts, one a chunk, add a fraction of a byte.
	records := sample("qhpc_job_records_bytes")
	if per := records / jobs; per < keyLen || per > 1000 {
		t.Errorf("record bytes per job = %.0f, want its %d-B key and a few tens more", per, keyLen)
	}
	if idx := sample("qhpc_job_index_bytes"); idx <= 0 || idx > 40*jobs {
		t.Errorf("index bytes = %v after %d jobs, want at most a 40-B entry each", idx, jobs)
	}
	live, added := sample("qhpc_go_heap_live_bytes")-live0, records-records0
	t.Logf("over the last %d jobs: live heap +%.0f B, records +%.0f B", jobs-warm, live, added)
	// Where there is no anonymous mmap the arena is on the heap
	// (fleet/arena_heap.go). There a job's 40-B index entry takes live heap
	// too; its ~226-B record would add more than the bound leaves. On unix
	// the rest of the node reads 8–12 B a job here, with or without -race,
	// and index pages on the heap 49–53 B.
	const maxLivePerJob = 30.0
	offHeap := !slices.Contains([]string{"windows", "plan9", "js", "wasip1"}, runtime.GOOS)
	if per := live / (jobs - warm); offHeap && per >= maxLivePerJob {
		t.Errorf("live heap grew %.0f B per job over the last %d jobs, want < %.0f (records %.0f B per job): the records or the index are on the heap", per, jobs-warm, maxLivePerJob, added/(jobs-warm))
	}
	if scan := sample("qhpc_go_gc_scan_heap_bytes"); scan <= 0 {
		t.Errorf("scannable heap = %v, want > 0", scan)
	}
	if cycles := sample("qhpc_go_gc_cycles_total"); cycles < 1 {
		t.Errorf("GC cycles = %v after a forced GC", cycles)
	}
	if g := sample("qhpc_go_goroutines"); g < 1 {
		t.Errorf("goroutines = %v", g)
	}
	if cpu := sample("qhpc_go_gc_cpu_seconds_total"); cpu < 0 {
		t.Errorf("GC CPU seconds = %v", cpu)
	}
}

// sampleOf is the value of series in Prometheus text body.
func sampleOf(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return x
		}
	}
	t.Fatalf("no sample %s in /metrics", series)
	return 0
}

// BenchmarkSealedGET reads sealed jobs back as a client does: GET
// /api/v2/jobs/{id} through Server.ServeHTTP into a recorder, round robin
// over 64 sealed GHZ(3..6) × 100-shot jobs from 8 users on one noisy
// 20-qubit device, a sweep-burst burst. Each GET copies the record and its
// circuit out of the arena, reads the head, and renders the result's
// members and the request from the stored bytes.
func BenchmarkSealedGET(b *testing.B) {
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	defer f.Stop()
	qpu, err := device.New(device.Config{Name: "garnet-20", Rows: 4, Cols: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.AddDevice("garnet-20", qdmi.NewDevice(qpu, nil), 2); err != nil {
		b.Fatal(err)
	}
	reqs := make([]*http.Request, 64)
	for i := range reqs {
		id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(3 + i%4), Shots: 100, User: fmt.Sprintf("u%d", i/4%8)}, fleet.SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = httptest.NewRequest(http.MethodGet, "/api/v2/jobs/"+FormatJobID(id), nil)
	}
	f.WaitSettled()
	srv := NewFleetServer(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			b.Fatalf("GET %s: %d %s", reqs[i%len(reqs)].URL, w.Code, w.Body)
		}
	}
}
