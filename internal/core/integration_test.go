package core

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/hybrid"
	"repro/internal/mqss"
)

// End-to-end integration: a VQE loop through the full center stack — the
// tightly-coupled accelerator mode that §2.6 motivates. Every energy
// evaluation is a quantum job that flows client → fleet → QRM → JIT
// transpile → device, exactly as a production hybrid workflow would.
func TestVQEThroughCenterStack(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	c := commissioned(t, Config{Seed: 20, DigitalTwin: true})
	runner := hybrid.RunnerFunc(func(cc *circuit.Circuit, shots int) (map[int]int, error) {
		job, err := c.LocalClient().Run(context.Background(), mqss.SubmitRequest{Circuit: cc, Shots: shots, User: "vqe"})
		if err != nil {
			return nil, err
		}
		// Map physical outcomes back to logical qubits.
		logical := make(map[int]int, len(job.Counts))
		for outcome, count := range job.Counts {
			l := 0
			for i, p := range job.Layout {
				if outcome&(1<<uint(p)) != 0 {
					l |= 1 << uint(i)
				}
			}
			logical[l] += count
		}
		return logical, nil
	})
	ansatz, np := hybrid.HardwareEfficientAnsatz(2, 1)
	v := &hybrid.VQE{
		Hamiltonian: hybrid.H2Molecule(),
		Ansatz:      ansatz,
		Runner:      runner,
		Shots:       2000,
		Optimizer:   hybrid.DefaultSPSA(150, 5),
	}
	initial := make([]float64, np)
	for i := range initial {
		initial[i] = 0.1 * float64(i+1)
	}
	res, err := v.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	exact := hybrid.H2GroundStateEnergy()
	if math.Abs(res.Value-exact) > 0.15 {
		t.Errorf("stack VQE energy %.4f, want within 0.15 of %.4f", res.Value, exact)
	}
	// The QRM saw every energy evaluation as jobs.
	if n := int(c.Fleet().Metrics().Submitted); n < res.Evaluations {
		t.Errorf("scheduler recorded %d jobs for %d evaluations", n, res.Evaluations)
	}
}

// Hybrid co-scheduling: the batch scheduler runs a classical job and a
// QPU-needing job concurrently, and calibration reservations block the QPU
// resource while classical work continues (§3.2 scheduling control).
func TestHybridCoSchedulingWithCalibrationSlot(t *testing.T) {
	c := commissioned(t, Config{Seed: 21, DigitalTwin: true, Nodes: 8})
	now := c.HPC.Now()
	// Book the 100-minute full-calibration slot an hour from now.
	if _, err := c.HPC.Reserve("weekly-full-calibration", now+3600, 100*60, true, 0); err != nil {
		t.Fatal(err)
	}
	idClassical, err := c.HPC.Submit("cfd-run", 4, false, 4*3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	idHybrid, err := c.HPC.Submit("vqe-sweep", 2, true, 30*60, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.HPC.Advance(60)
	jc, _ := c.HPC.Job(idClassical)
	jh, _ := c.HPC.Job(idHybrid)
	if jc.State != 1 || jh.State != 1 { // JobRunning
		t.Fatalf("both jobs should start immediately: classical=%v hybrid=%v", jc.State, jh.State)
	}
	// A second hybrid job submitted during the calibration window waits.
	c.HPC.Advance(3600) // into the calibration slot; first hybrid done
	idLate, err := c.HPC.Submit("late-hybrid", 1, true, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.HPC.Advance(600)
	late, _ := c.HPC.Job(idLate)
	if late.State != 0 { // JobQueued
		t.Errorf("hybrid job during calibration slot = %v, want queued", late.State)
	}
	c.HPC.Advance(100 * 60)
	late, _ = c.HPC.Job(idLate)
	if late.State == 0 {
		t.Error("hybrid job should start after the calibration slot")
	}
}

// The §4 batch + pagination workflow through the REST layer is covered in
// internal/mqss; here we confirm the center keeps work off the offline QPU
// during an outage end to end. With no sibling to run it, a submission is
// accepted and waits queued (DESIGN.md "Outage semantics") — nothing
// executes.
func TestJobsRejectedDuringOutage(t *testing.T) {
	c := commissioned(t, Config{Seed: 22, DigitalTwin: true})
	defer c.Fleet().Stop()
	c.Power.Feeds()[0].Fail()
	for i := 0; i < 4; i++ {
		c.Advance(3600)
	}
	if c.Phase() != PhaseOutage {
		t.Fatalf("phase = %s", c.Phase())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := c.LocalClient().Run(ctx, mqss.SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "x"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("run during outage: err = %v, want the wait to time out with the job queued", err)
	}
	m := c.Fleet().Metrics()
	if m.QueueDepth != 1 || m.Devices[0].Routed != 0 {
		t.Errorf("queued = %d, jobs on the offline QPU = %d; want 1 queued, 0 dispatched",
			m.QueueDepth, m.Devices[0].Routed)
	}
}

// Regression: the center once wrapped the primary QPU in a second manager
// that Advance never took offline, so a fleet kept executing on a QPU the
// center had declared down. One scheduler serves every path: an outage
// fails the primary in the fleet RESTHandler serves, a job submitted
// meanwhile waits queued, and it completes after recovery.
func TestOutageParksRESTJobsUntilRecovery(t *testing.T) {
	c := commissioned(t, Config{Seed: 23, DigitalTwin: true})
	f := c.Fleet()
	defer f.Stop()
	srv := httptest.NewServer(c.RESTHandler())
	defer srv.Close()
	client := mqss.NewRemoteClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := mqss.SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "outage"}

	warm, err := client.Submit(ctx, req, "")
	if err != nil {
		t.Fatal(err)
	}
	if j, err := warm.Wait(ctx); err != nil || j.State != mqss.StateDone {
		t.Fatalf("pre-outage job: %+v, %v", j, err)
	}

	c.Power.Feeds()[0].Fail()
	for i := 0; i < 4; i++ {
		c.Advance(3600)
	}
	if c.Phase() != PhaseOutage {
		t.Fatalf("phase = %s, want outage", c.Phase())
	}
	h, err := client.Submit(ctx, req, "")
	if err != nil {
		t.Fatalf("submit during outage should be accepted and queued: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // a job routed to the dead QPU would have finished by now
	if j, err := h.Poll(ctx); err != nil || j.State != mqss.StateQueued {
		t.Fatalf("job during outage: %+v, %v; want queued", j, err)
	}
	if n := f.Metrics().Devices[0].Routed; n != 1 {
		t.Fatalf("offline QPU claimed %d jobs, want only the pre-outage one", n)
	}

	c.Power.Feeds()[0].Restore()
	for hours := 0; !c.Operational() && hours < 24*7; hours++ {
		c.Advance(3600)
	}
	if !c.Operational() {
		t.Fatal("center did not recover within a week")
	}
	if j, err := h.Wait(ctx); err != nil || j.State != mqss.StateDone {
		t.Fatalf("queued job after recovery: %+v, %v; want done", j, err)
	}
}
