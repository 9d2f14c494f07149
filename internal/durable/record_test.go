package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// fillRandom sets every settable field reachable from v to a random value
// (zero a third of the time), so a field the hand-written encoders forget
// shows up as a byte difference.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	if rng.Intn(3) == 0 && v.Kind() != reflect.Struct {
		v.Set(reflect.Zero(v.Type()))
		return
	}
	switch v.Kind() {
	case reflect.String:
		strs := []string{"done", "garnet-20", "u0", "<&>", "é", "a\"b", " ", "k-17"}
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Intn(2000) - 100))
	case reflect.Float64:
		fs := []float64{0.5, 1e-9, 3e21, -2.25, 1234.5678, rng.Float64()}
		v.SetFloat(fs[rng.Intn(len(fs))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Slice:
		n := rng.Intn(5)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := rng.Intn(40); i > 0; i-- {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillRandom(rng, k)
			fillRandom(rng, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillRandom(rng, p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillRandom(rng, v.Field(i))
			}
		}
	}
}

// TestJobRecordJSONMatchesReflection holds the journal's hand-written
// encoders to encoding/json: an 'F' record is json.Marshal of its
// fleetJobRecord, and a 'U' record json.Marshal of the fleetJobUpdate of
// the same job, over jobs with every exported field filled at random.
func TestJobRecordJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var j fleet.Job
		fillRandom(rng, reflect.ValueOf(&j).Elem())
		check := func(kind byte, got []byte, err error, v any) {
			t.Helper()
			want, werr := json.Marshal(v)
			if (err != nil) != (werr != nil) {
				t.Fatalf("job %d %q: encoder err %v, encoding/json err %v", i, kind, err, werr)
			}
			if err == nil && !bytes.Equal(got, append([]byte{kind}, want...)) {
				t.Fatalf("job %d encodes\n%s\nencoding/json writes\n%c%s", i, got, kind, want)
			}
		}
		got, err := appendJobRecord(nil, &j)
		check(recFleetJob, got, err, fleetJobRecord{SubmitUnixMs: j.SubmitUnixMs, Job: &j})

		u := fleetJobUpdate{
			ID: j.ID, Status: j.Status, Device: j.Device, Migrations: j.Migrations, Score: j.Score,
			Result: j.Result, Error: j.Error, Recovered: j.Recovered,
		}
		if j.Recovered {
			u.SubmitUnixMs = j.SubmitUnixMs
		}
		var res []byte
		var rerr error
		if j.Result != nil {
			res, rerr = j.Result.AppendJSON(nil)
		}
		got, err = appendUpdateRecord(nil, &j, res)
		check(recFleetUpdate, got, errors.Join(rerr, err), u)
	}
	meta := metaRecord{SnapshotLSN: 1 << 40, SavedUnixMs: 1792206531784}
	want, _ := json.Marshal(meta)
	if got := appendMetaRecord(nil, meta); !bytes.Equal(got, append([]byte{recMeta}, want...)) {
		t.Errorf("meta record %s, encoding/json writes M%s", got, want)
	}
}

// hybridLoopJob is a job of the hybrid-loop shape — a fresh-angle 5-qubit,
// depth-4 ansatz, 100 shots — settled done with 32 outcomes.
func hybridLoopJob() *fleet.Job {
	rng := rand.New(rand.NewSource(1))
	c := &circuit.Circuit{NumQubits: 5}
	for l := 0; l < 4; l++ {
		for q := 0; q < 5; q++ {
			c.Gates = append(c.Gates, circuit.Gate{Name: circuit.OpRX, Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 5; q += 2 {
			c.Gates = append(c.Gates, circuit.Gate{Name: circuit.OpCZ, Qubits: []int{q, q + 1}})
		}
	}
	counts := circuit.Counts{}
	for k := 0; k < 32; k++ {
		counts[k] = 1 + rng.Intn(6)
	}
	return &fleet.Job{
		ID: 4711, Status: fleet.JobDone, Device: "garnet-20", Score: 0.8731,
		Request:      qrm.Request{Circuit: c, Shots: 100, User: "u0"},
		SubmitUnixMs: 1792206531784, IdemKey: "key-4711",
		Result: &fleet.Result{
			CompiledGates: 71, CZCount: 10, Layout: []int{8, 9, 13, 14, 4},
			CompileStats: "transpile{gates 30→71, depth 8→21, 2q 10→10 cz, swaps 0}",
			Counts:       counts, DurationUs: 1206.4, EndTime: 86400,
		},
	}
}

// TestJournalAllocs is the allocation gate of the journal's write path: a
// submission record and an update record are each encoded into the store's
// buffer and framed into the WAL's, so in steady state neither allocates
// more than one object (the group flusher swapping in a grown buffer).
func TestJournalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the production ones; CI runs this gate as its own non-race step")
	}
	st, _, err := Open(t.TempDir(), Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := hybridLoopJob()
	res, err := j.Result.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		journal func(*fleet.Job) uint64
	}{
		{"submit", st.JournalFleetJob},
		{"update", func(j *fleet.Job) uint64 { return st.JournalFleetUpdate(j, res) }},
	} {
		got := testing.AllocsPerRun(500, func() { tc.journal(j) })
		t.Logf("%s record: %.2f allocs", tc.name, got)
		if got > 1 {
			t.Errorf("%s record: %.1f allocs, want <= 1", tc.name, got)
		}
	}
	if st.dropped != 0 {
		t.Fatalf("%d records dropped", st.dropped)
	}
}

// TestNonFiniteSubmissionRefused: a job whose request holds a value JSON
// cannot spell — a NaN gate parameter, a NaN deadline — could never reach
// the journal, so acking it would ack a job a restart loses. Both are
// refused at admission, and nothing is minted or journaled.
func TestNonFiniteSubmissionRefused(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	f.AttachStore(st)
	if err := f.AddDevice("a", qdmi.NewDevice(device.NewTwin20Q(3), nil), 1); err != nil {
		t.Fatal(err)
	}
	rx := &circuit.Circuit{NumQubits: 2, Gates: []circuit.Gate{{Name: circuit.OpRX, Qubits: []int{0}, Params: []float64{math.NaN()}}}}
	for name, req := range map[string]qrm.Request{
		"NaN rx angle":      {Circuit: rx, Shots: 5},
		"+Inf rx angle":     {Circuit: &circuit.Circuit{NumQubits: 2, Gates: []circuit.Gate{{Name: circuit.OpRX, Qubits: []int{0}, Params: []float64{math.Inf(1)}}}}, Shots: 5},
		"NaN deadline":      {Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: math.NaN()},
		"+Inf deadline":     {Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: math.Inf(1)},
		"negative deadline": {Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: -1},
	} {
		if id, err := f.Submit(req, fleet.SubmitOptions{IdemKey: name}); err == nil {
			t.Errorf("%s: submission acked as job %d", name, id)
		}
	}
	if m := f.Metrics(); m.Submitted != 0 {
		t.Errorf("%d jobs minted, want 0", m.Submitted)
	}
	f.Stop()
	if st.dropped != 0 || st.Stats().LastLSN != 0 {
		t.Errorf("journal holds %d records and dropped %d, want none", st.Stats().LastLSN, st.dropped)
	}
	st.Abandon()
	_, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.FleetJobs) != 0 {
		t.Errorf("a restart recovered %d jobs, want 0", len(rec.FleetJobs))
	}
}
