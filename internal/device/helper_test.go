package device_test

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/telemetry/trace"
)

// simulateAttr returns attribute key of the first simulate span under sp.
func simulateAttr(sp *trace.SpanSnapshot, key string) (string, bool) {
	if sp == nil {
		return "", false
	}
	if sp.Name == "simulate" {
		v, ok := sp.Attrs[key]
		return v, ok
	}
	for _, c := range sp.Children {
		if v, ok := simulateAttr(c, key); ok {
			return v, true
		}
	}
	return "", false
}

// TestHelpersEndWithTheirJobs: a wide job's helper goroutine ends with the
// job. Wide jobs through a two-worker device, with at least two Ps so a
// helper slot exists, and then Stop, leave runtime.NumGoroutine where it
// was before the fleet started; the simulate spans show the helpers ran
// forks meanwhile.
func TestHelpersEndWithTheirJobs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	base := runtime.NumGoroutine()
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	qpu := device.New20Q(5)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), 2); err != nil {
		t.Fatal(err)
	}
	const jobs = 16
	ids := make([]int, jobs)
	for i := range ids {
		id, err := f.Submit(qrm.Request{Circuit: device.NativeRandom45(12, 4, int64(i)), Shots: 50, User: "u"}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	forks, helped := 0, 0
	for _, id := range ids {
		j, err := f.WaitContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != fleet.JobDone {
			t.Fatalf("job %d: %s %q", id, j.Status, j.Error)
		}
		root := f.Trace(id).Snapshot().Root
		for key, sum := range map[string]*int{"forks": &forks, "forks_helped": &helped} {
			v, ok := simulateAttr(root, key)
			if !ok {
				t.Fatalf("job %d: no %s on its simulate span", id, key)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			*sum += n
		}
	}
	f.Stop()
	t.Logf("%d wide jobs forked %d subtrees, %d of them on a helper", jobs, forks, helped)
	if forks == 0 || helped == 0 {
		t.Fatalf("%d forks, %d helped: the jobs did not exercise the helper", forks, helped)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop, %d before the fleet started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
