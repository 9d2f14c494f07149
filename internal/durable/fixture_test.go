package durable

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/qrm"
	"repro/internal/transpile"
)

// parentFFrames is the life of each job in testdata/parent-fframes: the
// whole records, in journal order, that the last commit to journal every
// transition as an 'F' frame wrote for them. Jobs 1 and 2 settled before a
// compaction (done, keyed; failed in compile), so only their last record
// is in the snapshot; jobs 3–5 were journaled after it, and a kill left
// job 3 routed and job 4 queued.
func parentFFrames() (before, after [][]*fleet.Job) {
	ansatz := &circuit.Circuit{NumQubits: 3, Gates: []circuit.Gate{
		{Name: circuit.OpRX, Qubits: []int{0}, Params: []float64{0.7853981633974483}},
		{Name: circuit.OpCZ, Qubits: []int{0, 1}},
		{Name: circuit.OpRX, Qubits: []int{2}, Params: []float64{1e-7}},
	}}
	life := func(id int, req qrm.Request, key string, steps ...func(j *fleet.Job)) []*fleet.Job {
		j := fleet.Job{ID: id, Status: fleet.JobQueued, Request: req, SubmitUnixMs: 1792206531000 + int64(id), IdemKey: key}
		out := []*fleet.Job{}
		for _, step := range append([]func(*fleet.Job){func(*fleet.Job) {}}, steps...) {
			step(&j)
			cp := j
			out = append(out, &cp)
		}
		return out
	}
	routed := func(dev string, score float64) func(*fleet.Job) {
		return func(j *fleet.Job) { j.Status, j.Device, j.Score = fleet.JobRouted, dev, score }
	}
	done := func(counts circuit.Counts) func(*fleet.Job) {
		return func(j *fleet.Job) {
			j.Status = fleet.JobDone
			j.Result = &fleet.Result{
				CompiledGates: 9, CZCount: 1, Layout: transpile.Layout{8, 9, 13},
				CompileStats: "transpile{gates 3→9, depth 3→6, 2q 1→1 cz, swaps 0}",
				Counts:       counts, DurationUs: 1206.4, SubmitTime: 86400, EndTime: 86400.25,
			}
		}
	}
	before = [][]*fleet.Job{
		life(1, qrm.Request{Circuit: ansatz, Shots: 8, User: "alice", Priority: 2, DeadlineMs: 2.5}, "key-<1>",
			routed("garnet-20", 0.8731), done(circuit.Counts{0: 5, 3: 2, 7: 1})),
		life(2, qrm.Request{Circuit: circuit.GHZ(2), Shots: 4, User: "bob"}, "",
			routed("garnet-20", 0.91), func(j *fleet.Job) {
				j.Status, j.Error = fleet.JobFailed, `compile: transpile: unknown gate "bogus"`
				j.Result = &fleet.Result{SubmitTime: 86400, EndTime: 86400.5}
			}),
	}
	after = [][]*fleet.Job{
		life(3, qrm.Request{Circuit: ansatz, Shots: 16, User: "alice"}, "",
			routed("garnet-20-b", 0.5)),
		life(4, qrm.Request{Circuit: circuit.GHZ(3), Shots: 4, User: "carol", StaticPlacement: true}, ""),
		life(5, qrm.Request{Circuit: circuit.GHZ(2), Shots: 4, User: "bob"}, "",
			routed("garnet-20", 0.91), func(j *fleet.Job) { j.Migrations, j.Status = 1, fleet.JobQueued }, // the failover keeps the device it left
			routed("garnet-20-b", 0.5), done(circuit.Counts{0: 2, 3: 2})),
	}
	for _, lives := range [][][]*fleet.Job{before, after} {
		for _, l := range lives {
			for _, j := range l {
				j.Pinned, j.Node = "", "node-a"
			}
		}
	}
	return before, after
}

// TestParentFFramesFixture opens testdata/parent-fframes — a snapshot and a
// journal segment of whole-record 'F' frames, written by the last commit
// to journal every transition that way — and pins what each job recovers
// as. Then a restore journals updates on top, a Compact folds everything
// into a snapshot, and a reopen must find every job as the restored
// scheduler holds it, the settled ones unchanged.
func TestParentFFramesFixture(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent-fframes"))
	before, after := parentFFrames()
	want := map[int]*fleet.Job{}
	for _, l := range append(before, after...) {
		last := l[len(l)-1]
		want[last.ID] = last
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("fixture lost its snapshot: %v", err)
	}
	st, rec, err := Open(dir, Options{Sync: SyncOff})
	mustOK(t, err)
	if len(rec.FleetJobs) != len(want) || rec.Stats.Segments == 0 {
		t.Fatalf("recovered %d jobs from %d segments, want %d jobs", len(rec.FleetJobs), rec.Stats.Segments, len(want))
	}
	for _, j := range rec.FleetJobs {
		sameJournaledFields(t, "open", j, want[j.ID])
	}

	f := fleet.New(fleet.PolicyBestFidelity, nil) // no devices: the re-queued jobs wait
	f.AttachStore(st)
	lsn := st.Stats().LastLSN
	rs, err := f.Restore(rec.FleetJobs)
	if err != nil || rs.Terminal != 3 || rs.Requeued != 2 {
		t.Fatalf("restore = %+v (%v), want 3 terminal and 2 re-queued", rs, err)
	}
	if n := st.Stats().LastLSN - lsn; n != 2 {
		t.Fatalf("restore journaled %d records, want an update per re-queued job", n)
	}
	live := map[int]*fleet.Job{}
	for id := range want {
		live[id], err = f.Job(id)
		mustOK(t, err)
	}
	mustOK(t, st.Compact())
	assertNoRecordKind(t, dir, recFleetUpdate) // folded into the snapshot
	// Restore marks the settled jobs recovered in memory only: it journals
	// none of them, so they must read back exactly as the fixture holds them.
	for id, j := range reopen(t, dir, st, f) {
		if w := want[id]; w.Status.Terminal() {
			sameJournaledFields(t, "settled job after compaction", j, w)
		} else {
			sameJournaledFields(t, "re-queued job after compaction", j, live[id])
		}
	}
}
