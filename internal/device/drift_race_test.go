package device_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/transpile"
)

// oneDevice serves qpu as a one-device fleet with the given worker count,
// stopped when the test ends.
func oneDevice(t *testing.T, qpu *device.QPU, workers int) *fleet.Scheduler {
	t.Helper()
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), workers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// compileAttrs runs one job through f and returns its device record and the
// attributes its compile span ended with.
func compileAttrs(f *fleet.Scheduler, req qrm.Request) (*qrm.Job, map[string]string, error) {
	id, err := f.Submit(req, fleet.SubmitOptions{})
	if err != nil {
		return nil, nil, err
	}
	j, err := f.WaitContext(context.Background(), id)
	if err != nil {
		return nil, nil, err
	}
	if j.Result == nil {
		return nil, nil, fmt.Errorf("job %d: %s (%s) without a device record", id, j.Status, j.Error)
	}
	for _, leg := range f.Trace(id).Snapshot().Root.Children {
		for _, sp := range leg.Children {
			if sp.Name == "compile" {
				return j.Result, sp.Attrs, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("job %d: no compile span", id)
}

// TestDriftTicksMidCompile races calibration publishes against dispatch:
// four submitters push fresh-angle ansatze and a repeated GHZ circuit
// through a four-worker device while a goroutine advances drift or
// recalibrates every ~100 µs. For every finished job, the epoch its compile
// span names must be the one whose Target placed it and whose channels every
// noise site of its program holds, and no epoch's compile map may outgrow
// its bound — run under -race in CI.
func TestDriftTicksMidCompile(t *testing.T) {
	qpu := device.New20Q(41)
	f := oneDevice(t, qpu, 4)

	var mu sync.Mutex
	epochs := map[uint64]*device.Epoch{0: qpu.Epoch()}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if n := qpu.Epoch().Entries(); n > device.MaxCompiledJobs {
				t.Errorf("an epoch's compile map holds %d entries, bound %d", n, device.MaxCompiledJobs)
			}
			if i%8 == 0 {
				qpu.Recalibrate(false)
			} else {
				qpu.AdvanceDrift(0.25)
			}
			ep := qpu.Epoch()
			mu.Lock()
			epochs[ep.Num] = ep
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	type finished struct {
		req   qrm.Request
		rec   *qrm.Job
		attrs map[string]string
	}
	const submitters, each = 4, 30
	results := make(chan finished, submitters*each)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				c := circuit.GHZ(4) // repeated: hits within an epoch
				if i%2 == 0 {
					c = circuit.New(5, "ansatz") // fresh angles: always a miss
					for l := 0; l < 4; l++ {
						for q := 0; q < 5; q++ {
							c.RX(q, 2*math.Pi*rng.Float64())
						}
						for q := l % 2; q+1 < 5; q += 2 {
							c.CZ(q, q+1)
						}
					}
				}
				req := qrm.Request{Circuit: c, Shots: 20, User: "drift"}
				rec, attrs, err := compileAttrs(f, req)
				if err != nil {
					t.Error(err)
					return
				}
				results <- finished{req, rec, attrs}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stopped
	close(results)
	if len(epochs) < 2 {
		t.Fatalf("only %d epochs published during the run: no tick landed mid-dispatch", len(epochs))
	}

	for r := range results {
		if r.rec.Status != qrm.StatusDone {
			t.Errorf("job %d: %s (%s)", r.rec.ID, r.rec.Status, r.rec.Error)
			continue
		}
		num, err := strconv.ParseUint(r.attrs["epoch"], 10, 64)
		ep := epochs[num]
		if err != nil || ep == nil {
			t.Errorf("job %d: compile span names epoch %q, which was never published", r.rec.ID, r.attrs["epoch"])
			continue
		}
		e := ep.Lookup(r.req.Circuit, transpile.PlaceFidelityAware)
		if e == nil {
			t.Errorf("job %d: epoch %d's compile map has no entry for it", r.rec.ID, num)
			continue
		}
		placed, err := transpile.Transpile(r.req.Circuit, ep.Target, transpile.Options{Placement: transpile.PlaceFidelityAware})
		if err != nil {
			t.Fatal(err)
		}
		n := r.req.Circuit.NumQubits
		if !reflect.DeepEqual(e.Result().FinalLayout, placed.FinalLayout) || !reflect.DeepEqual(r.rec.Layout, placed.FinalLayout[:n]) ||
			r.rec.CompiledGates != placed.Stats.OutputGates {
			t.Errorf("job %d: layout %v (%d gates), but epoch %d's Target places it at %v (%d gates)",
				r.rec.ID, r.rec.Layout, r.rec.CompiledGates, num, placed.FinalLayout[:n], placed.Stats.OutputGates)
		}
		if bad := ep.NoiseMismatch(e); bad != "" {
			t.Errorf("job %d: %s does not hold the channel of the epoch that placed it", r.rec.ID, bad)
		}
	}
	for num, ep := range epochs {
		if n := ep.Entries(); n > device.MaxCompiledJobs {
			t.Errorf("epoch %d's compile map holds %d entries, bound %d", num, n, device.MaxCompiledJobs)
		}
	}
}

// TestTickStartsAnEmptyCompileMap: a circuit that hit within one epoch is a
// miss on the first job after a tick, compiled into the new epoch's map,
// which started empty.
func TestTickStartsAnEmptyCompileMap(t *testing.T) {
	qpu := device.New20Q(42)
	f := oneDevice(t, qpu, 1)
	req := qrm.Request{Circuit: circuit.GHZ(4), Shots: 20}
	attrs := func() map[string]string {
		_, a, err := compileAttrs(f, req)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for i, want := range []string{"miss", "hit"} {
		if a := attrs(); a["cache"] != want || a["epoch"] != "0" {
			t.Errorf("job %d before the tick: compile %v, want cache=%s epoch=0", i, a, want)
		}
	}
	qpu.AdvanceDrift(1)
	if n := qpu.Epoch().Entries(); n != 0 {
		t.Errorf("the new epoch's compile map starts with %d entries", n)
	}
	if a := attrs(); a["cache"] != "miss" || a["epoch"] != "1" {
		t.Errorf("first job after the tick: compile %v, want cache=miss epoch=1", a)
	}
	if n := qpu.Epoch().Entries(); n != 1 {
		t.Errorf("the new epoch's compile map holds %d entries after one job, want 1", n)
	}
}
