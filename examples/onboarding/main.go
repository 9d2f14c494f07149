// Onboarding example: the §4 early-user program end to end — application
// review, mentorship assignment, the Use–Modify–Create progression gating
// hardware access behind digital-twin practice, and the FAQ process that
// turns user friction into engineering priorities.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/onboarding"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

func main() {
	reg := onboarding.NewRegistry(10, []string{"sa-keller", "sa-huang"})

	// 1. Application review (§4 selection criteria).
	apps := []onboarding.Application{
		{User: "chem-group", Project: "molecular embedding", ResearchRelevance: 5, WorkflowPlan: 4, Deliverability: 4, MQVAffiliation: true},
		{User: "opt-group", Project: "TSP benchmarking", ResearchRelevance: 4, WorkflowPlan: 5, Deliverability: 4, PriorCollaboration: true},
		{User: "vague-group", Project: "quantum stuff", ResearchRelevance: 2, WorkflowPlan: 1, Deliverability: 2},
	}
	for _, a := range apps {
		admitted, err := reg.Review(a)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("application %-12s score %2d -> admitted=%v\n", a.User, a.Score(), admitted)
	}

	// 2. Training on the digital twin (Use -> Modify), then hardware.
	twin := oneDevice(device.NewTwin20Q(5))
	defer twin.Stop()
	hardware := oneDevice(device.New20Q(5))
	defer hardware.Stop()
	user := "chem-group"

	if err := reg.CanSubmit(user, true); err != nil {
		fmt.Printf("\nhardware gate works: %v\n", err)
	}
	if err := reg.Advance(user); err != nil { // use -> modify
		log.Fatal(err)
	}
	fmt.Println("\ntwin practice (Use-Modify stages):")
	for i := 0; i < 6; i++ {
		j := run(twin, qrm.Request{Circuit: circuit.GHZ(3 + i%3), Shots: 200, User: user})
		fmt.Printf("  twin job %d: %s (%d outcomes)\n", j.ID, j.Status, len(j.Result.Counts))
		reg.RecordJob(user, false)
	}
	if err := reg.Advance(user); err != nil { // modify -> create
		log.Fatal(err)
	}
	if err := reg.CanSubmit(user, true); err != nil {
		log.Fatal(err)
	}
	u, _ := reg.Lookup(user)
	fmt.Printf("\n%s reached stage %q (mentor %s) — hardware unlocked\n", user, u.Stage, u.Mentor)
	j := run(hardware, qrm.Request{Circuit: circuit.GHZ(5), Shots: 500, User: user})
	fmt.Printf("hardware job %d: %s — %s\n", j.ID, j.Status, j.Result.CompileStats)
	reg.RecordJob(user, true)
	reg.SubmitReport(user)

	// 3. The FAQ loop that drove §4's engineering priorities.
	for i := 0; i < 6; i++ {
		reg.Ask(onboarding.CatTracking, "How do I navigate my job history?")
	}
	reg.Ask(onboarding.CatSubmission, "Can I submit circuits in a batch?")
	reg.Ask(onboarding.CatSubmission, "Can I submit circuits in a batch?")
	reg.Ask(onboarding.CatSystemInfo, "Where do I find the qubit coupling map?")
	reg.Answer(onboarding.CatTracking, "How do I navigate my job history?",
		"Use GET /api/v2/jobs?user=&limit= and follow next_cursor — cursor pagination was added for exactly this.")

	fmt.Println("\ntop user friction (drives the engineering backlog):")
	for _, cat := range onboarding.Categories() {
		for _, q := range reg.TopQuestions(cat, 1) {
			fmt.Printf("  [%s] asked %dx: %s\n", cat, q.Count, q.Text)
		}
	}
	st := reg.Stats()
	fmt.Printf("\ncohort: %d users, %d at create stage, %d reports filed, %d twin + %d hardware jobs\n",
		st.Users, st.AtCreateStage, st.ReportsFiled, st.TwinJobs, st.HardwareJobs)
}

// oneDevice is the QRM of one QPU: a one-device fleet with one worker.
func oneDevice(qpu *device.QPU) *fleet.Scheduler {
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), 1); err != nil {
		log.Fatal(err)
	}
	return f
}

// run submits one job and waits for its terminal record.
func run(f *fleet.Scheduler, req qrm.Request) *fleet.Job {
	id, err := f.Submit(req, fleet.SubmitOptions{})
	if err != nil {
		log.Fatal(err)
	}
	j, err := f.WaitContext(context.Background(), id)
	if err != nil {
		log.Fatal(err)
	}
	return j
}
