package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/tenant"
)

// lifecycleAudit checks one scheduler lifetime's event stream against the
// transition table: every event is a table edge, leaves the status the
// job's previous event entered, and nothing follows a terminal event.
type lifecycleAudit struct {
	t       *testing.T
	last    map[int]JobStatus
	settled map[int]bool
	taken   map[edge]int
}

// newLifecycleAudit starts from the records a scheduler was restored with
// (none for a fresh one): their statuses are where the first events leave
// from, and terminal ones are history that must stay silent.
func newLifecycleAudit(t *testing.T, recovered []*Job) *lifecycleAudit {
	a := &lifecycleAudit{t: t, last: map[int]JobStatus{}, settled: map[int]bool{}, taken: map[edge]int{}}
	for _, j := range recovered {
		a.last[j.ID] = j.Status
		a.settled[j.ID] = j.Status.Terminal()
	}
	return a
}

func (a *lifecycleAudit) observe(ev Event) {
	if !lifecycle[edge{ev.From, ev.To, ev.Reason}] {
		a.t.Errorf("job %d: event %q→%q (%q) is not in the lifecycle table", ev.JobID, ev.From, ev.To, ev.Reason)
	}
	if prev := a.last[ev.JobID]; prev != ev.From {
		a.t.Errorf("job %d: event %q→%q (%q) leaves %q but the job was in %q", ev.JobID, ev.From, ev.To, ev.Reason, ev.From, prev)
	}
	if a.settled[ev.JobID] {
		a.t.Errorf("job %d: event %q→%q (%q, seq %d) after its terminal event", ev.JobID, ev.From, ev.To, ev.Reason, ev.Seq)
	}
	a.taken[edge{ev.From, ev.To, ev.Reason}]++
	a.last[ev.JobID] = ev.To
	if ev.To.Terminal() {
		a.settled[ev.JobID] = true
	}
}

// memStore is an in-memory JobStore: the latest journaled record per job,
// JSON-encoded the way the WAL holds it. kill freezes it where a kill -9
// would — later journal calls from the dying scheduler are swallowed.
type memStore struct {
	mu     sync.Mutex
	lsn    uint64
	latest map[int][]byte
	dead   bool
}

type memRecord struct {
	SubmitUnixMs int64
	Job          *Job
}

func (m *memStore) JournalFleetJob(j *Job) uint64 {
	body, err := json.Marshal(memRecord{j.SubmitUnixMs, j})
	if err != nil {
		panic(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dead {
		m.lsn++
		m.latest[j.ID] = body
	}
	return m.lsn
}

// JournalFleetUpdate keeps the whole record too: the fold of an update onto
// its submission is the durable package's to test.
func (m *memStore) JournalFleetUpdate(j *Job, _ []byte) uint64 { return m.JournalFleetJob(j) }

func (m *memStore) WaitDurable(uint64) {}

// kill stops accepting records and returns what survived.
func (m *memStore) kill(t *testing.T) []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead = true
	var jobs []*Job
	for _, body := range m.latest {
		var r memRecord
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		r.Job.SubmitUnixMs = r.SubmitUnixMs
		jobs = append(jobs, r.Job)
	}
	return jobs
}

func (m *memStore) revive() {
	m.mu.Lock()
	m.dead = false
	m.mu.Unlock()
}

// walkEpoch is one scheduler lifetime of the random walk.
type walkEpoch struct {
	s     *Scheduler
	devs  map[string]*qdmi.Device
	audit *lifecycleAudit
}

func startWalkEpoch(t *testing.T, seed int64, names []string, st *memStore, recovered []*Job) *walkEpoch {
	t.Helper()
	ep := &walkEpoch{s: New(PolicyBestFidelity, nil), devs: map[string]*qdmi.Device{}, audit: newLifecycleAudit(t, recovered)}
	for i, name := range names {
		ep.devs[name] = mkdev(t, name, 2, 3, seed*10+int64(i), 300*time.Microsecond)
		if err := ep.s.AddDevice(name, ep.devs[name], 2); err != nil {
			t.Fatal(err)
		}
	}
	ep.s.AttachStore(st)
	// Set before Restore, so the "recovered" edges are audited too.
	ep.s.observeAll(ep.audit.observe)
	if _, err := ep.s.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	return ep
}

// end stops the scheduler, holds the epoch to the counters every epoch
// owes and adds the edges it took to taken.
func (ep *walkEpoch) end(t *testing.T, taken map[edge]int) {
	t.Helper()
	ep.s.Stop()
	if n := ep.s.Metrics().IllegalTransitions; n != 0 {
		t.Errorf("IllegalTransitions = %d, want 0", n)
	}
	for e, n := range ep.audit.taken {
		taken[e] += n
	}
}

// TestLifecycleRandomWalk drives a 2–3 device fleet through a seeded random
// sequence of every operation that moves a job — keyed, keyless, pinned and
// deadlined submissions, cancels, drains, device failures under armed
// execution faults, resumes, a maintenance
// window opened and closed by AdvanceTo, admission shedding, kill-then-
// Restore from an in-memory store, stop — while an observer holds every
// event to the transition table. Between them the seeds must take
// every edge of the table: a row nothing can reach is not specification. Run
// under -race.
func TestLifecycleRandomWalk(t *testing.T) {
	taken := map[edge]int{}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { lifecycleRandomWalk(t, seed, taken) })
	}
	for e := range lifecycle {
		if taken[e] == 0 {
			t.Errorf("no seed took the edge %q→%q (%q)", e.from, e.to, e.reason)
		}
	}
	t.Logf("edges taken: %v", taken)
}

func lifecycleRandomWalk(t *testing.T, seed int64, taken map[edge]int) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c"}[:2+rng.Intn(2)]
	pick := func() string { return names[rng.Intn(len(names))] }
	st := &memStore{latest: map[int][]byte{}}
	ep := startWalkEpoch(t, seed, names, st, nil)

	var ids []int
	bound := map[string]qrm.Request{} // a tenant's key -> the request it was first sent with
	day, kills := 0.0, 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 9:
			r := req(2+rng.Intn(3), 3)
			r.User = fmt.Sprintf("u%d", rng.Intn(3))
			var opts SubmitOptions
			switch rng.Intn(4) {
			case 0:
				opts.IdemKey = fmt.Sprintf("k%d", rng.Intn(12))
				// A keyed retry resends its request: another one is refused.
				if first, ok := bound[r.User+"/"+opts.IdemKey]; ok {
					r = first
				} else {
					bound[r.User+"/"+opts.IdemKey] = r
				}
			case 1:
				opts.Device = pick()
			case 2:
				r.DeadlineMs = 0.2 + 3*rng.Float64()
			}
			id, replayed, err := ep.s.SubmitKeyed(r, opts)
			if err != nil {
				t.Fatalf("step %d: submit: %v", step, err)
			}
			if !replayed {
				ids = append(ids, id)
			}
		case op < 11 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			if err := ep.s.Cancel(id); err != nil && !errors.Is(err, ErrJobTerminal) {
				t.Fatalf("step %d: cancel %d: %v", step, id, err)
			}
		case op < 12:
			_ = ep.s.Drain(pick())
		case op < 13:
			// Fail a device with a fault armed: an execution it starts in
			// between fails under the failed device and goes back to the
			// queue; an unused fault fails some later job outright.
			name := pick()
			ep.devs[name].QPU().InjectFaults(1)
			time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			_ = ep.s.Fail(name)
		case op < 15:
			_ = ep.s.Resume(pick())
		case op < 16:
			// Open a window over the coming day on one device and step into it…
			_ = ep.s.SetMaintenancePlan(pick(), []MaintenanceWindow{{StartDay: day + 1, Days: 1}})
			day += 1.5
			ep.s.AdvanceTo(day)
		case op < 17:
			// …and step past every window opened so far.
			day += 2
			ep.s.AdvanceTo(day)
		case op < 18:
			ep.s.SetAdmission(tenant.Admission{HighWater: rng.Intn(3) * 2, MaxTenantQueue: rng.Intn(2) * 2})
		case op < 19 && kills < 3:
			kills++
			recovered := st.kill(t)
			ep.end(t, taken)
			st.revive()
			ep = startWalkEpoch(t, seed+int64(100*kills), names, st, recovered)
		default:
			time.Sleep(time.Duration(rng.Intn(600)) * time.Microsecond)
		}
	}

	// Let everything settle: every device back in routing, no shedding.
	ep.s.SetAdmission(tenant.Admission{})
	for _, name := range names {
		if err := ep.s.Resume(name); err != nil {
			t.Fatal(err)
		}
	}
	settled := make(chan struct{})
	go func() { ep.s.WaitSettled(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(30 * time.Second):
		for _, id := range ids {
			if j, _ := ep.s.Job(id); !j.Status.Terminal() {
				t.Logf("stuck: job %d %s on %q, pinned %q, %d migrations", id, j.Status, j.Device, j.Pinned, j.Migrations)
			}
		}
		t.Fatalf("jobs still in flight 30 s after the walk ended (%d queued)", ep.s.Metrics().QueueDepth)
	}
	ep.end(t, taken)
	for _, id := range ids {
		if !ep.audit.settled[id] {
			t.Errorf("job %d never got a terminal event (last status %q)", id, ep.audit.last[id])
		}
	}
	t.Logf("seed %d: %d devices, %d jobs, %d restarts", seed, len(names), len(ids), kills)
}

// TestStatusHasOneWriter parses the package's non-test source and fails on
// any write of a Status field outside transitionLocked — an assignment or a
// Job literal that sets it. The one thing exempt is a function writing the
// field of a Job it received by value: that is its own copy, never a
// scheduler record (refined relabels the copy Scheduler.Job returns).
func TestStatusHasOneWriter(t *testing.T) {
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	writers := 0
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".go") || strings.HasSuffix(ent.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, ent.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			copies := map[string]bool{} // parameters of type Job (not *Job)
			for _, p := range fn.Type.Params.List {
				if id, ok := p.Type.(*ast.Ident); ok && id.Name == "Job" {
					for _, n := range p.Names {
						copies[n.Name] = true
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Status" {
							continue
						}
						if fn.Name.Name == "transitionLocked" {
							writers++
						} else if id, ok := sel.X.(*ast.Ident); !ok || !copies[id.Name] {
							t.Errorf("%s: %s assigns .Status; only transitionLocked may", fset.Position(n.Pos()), fn.Name.Name)
						}
					}
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); !ok || id.Name != "Job" {
						break
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Status" {
								t.Errorf("%s: %s builds a Job with Status set; mint it empty and transition", fset.Position(kv.Pos()), fn.Name.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	if writers != 1 {
		t.Errorf("transitionLocked assigns .Status %d times, want exactly 1 (did it move?)", writers)
	}
}

// TestStatusSpellings pins the wire spellings and the one legacy reading.
func TestStatusSpellings(t *testing.T) {
	var j Job
	if err := json.Unmarshal([]byte(`{"id":1,"status":"pending"}`), &j); err != nil || j.Status != JobQueued {
		t.Errorf(`legacy "pending" decoded as %q (%v), want queued`, j.Status, err)
	}
	if out, _ := json.Marshal(Event{To: j.Status}); !strings.Contains(string(out), `"to":"queued"`) {
		t.Errorf("event encodes as %s", out)
	}
	for _, s := range []string{"queued", "routed", "running", "done", "failed", "cancelled"} {
		if got, err := ParseJobStatus(s); err != nil || string(got) != s {
			t.Errorf("ParseJobStatus(%q) = %q, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "pending", "compiling", "interrupted"} {
		if _, err := ParseJobStatus(s); err == nil {
			t.Errorf("ParseJobStatus(%q) accepted", s)
		}
	}
}
