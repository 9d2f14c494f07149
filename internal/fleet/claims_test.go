package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestNoDoubleClaimUnderFailoverAndDrain is the claim-conservation
// property test: across concurrent submission, drain/resume cycles and
// fail/recover cycles (with injected execution faults), no fleet job may
// ever be claimed by two devices at once. A double-claim is invisible in
// the happy-path record but shows up in conservation laws, which are
// checked exactly:
//
//  1. every fleet job reaches exactly one terminal state, and the fleet's
//     terminal counters partition the submissions;
//  2. the device managers' completed-job counts sum to the fleet's —
//     a double-claimed job would complete twice below while counting once
//     above;
//  3. the event stream carries exactly one terminal event per job and
//     nothing after it.
//
// Three seeded chaos schedules run as subtests (CI runs this under -race
// in the scenario-lab job).
func TestNoDoubleClaimUnderFailoverAndDrain(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runClaimChaos(t, seed)
		})
	}
}

func runClaimChaos(t *testing.T, seed int64) {
	const (
		devices    = 4
		workers    = 3
		submitters = 6
		jobsPer    = 40
		latency    = time.Millisecond
	)
	s := New(PolicyLeastLoaded, nil)
	defer s.Stop()
	names := []string{"a", "b", "c", "d"}
	qpus := map[string]interface{ InjectFaults(int) }{}
	for i, name := range names {
		d := mkdev(t, name, 4, 5, seed*10+int64(i), latency)
		if err := s.AddDevice(name, d, workers); err != nil {
			t.Fatal(err)
		}
		qpus[name] = d.QPU()
	}

	var events []Event
	s.observeAll(func(ev Event) { events = append(events, ev) })

	// Concurrent submitters.
	var (
		mu  sync.Mutex
		ids []int
		wg  sync.WaitGroup
	)
	submitDone := make(chan struct{})
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < jobsPer; i++ {
				id, err := s.Submit(req(3+(c+i)%4, 5), SubmitOptions{})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
				time.Sleep(200 * time.Microsecond)
			}
		}(c)
	}
	go func() { wg.Wait(); close(submitDone) }()

	// Chaos schedule: "b" drains and resumes, "c" faults and fails, "a"
	// and "d" stay up so nothing needs to park. Deterministic in seed.
	rng := rand.New(rand.NewSource(seed))
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for {
			select {
			case <-submitDone:
				return
			default:
			}
			switch rng.Intn(4) {
			case 0:
				s.Drain("b")
			case 1:
				s.Resume("b")
			case 2:
				qpus["c"].InjectFaults(3)
				s.Fail("c")
			case 3:
				qpus["c"].InjectFaults(0)
				s.Recover("c")
			}
			time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
		}
	}()
	<-submitDone
	<-chaosDone
	s.Resume("b")
	qpus["c"].InjectFaults(0)
	s.Recover("c")

	// Every job must reach exactly one terminal state.
	counts := map[JobStatus]int{}
	for _, id := range ids {
		j, err := s.Wait(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if !j.Status.Terminal() {
			t.Fatalf("job %d non-terminal after Wait: %s", id, j.Status)
		}
		counts[j.Status]++
	}
	s.WaitSettled()

	total := submitters * jobsPer
	m := s.Metrics()
	if int(m.Submitted) != total {
		t.Errorf("submitted %d, want %d", m.Submitted, total)
	}
	if int(m.Completed+m.Failed+m.Cancelled) != total {
		t.Errorf("terminal counters %d+%d+%d don't partition %d submissions",
			m.Completed, m.Failed, m.Cancelled, total)
	}
	if int(m.Completed) != counts[JobDone] || int(m.Failed) != counts[JobFailed] {
		t.Errorf("metrics done/failed %d/%d disagree with records %d/%d",
			m.Completed, m.Failed, counts[JobDone], counts[JobFailed])
	}

	// Conservation law 2: completed jobs across device managers must sum
	// to the fleet's completed count. A double-claim completes twice at
	// the device layer.
	var deviceDone uint64
	for _, dm := range m.Devices {
		deviceDone += dm.QRM.Completed
	}
	if deviceDone != m.Completed {
		t.Errorf("device managers completed %d jobs, fleet completed %d — a job ran on two devices",
			deviceDone, m.Completed)
	}

	// Conservation law 3: the event stream, complete once WaitSettled has
	// seen every job sealed.
	audit := newLifecycleAudit(t, nil)
	for _, ev := range events {
		audit.observe(ev)
	}
	if len(audit.settled) != total {
		t.Errorf("terminal events for %d jobs, want %d", len(audit.settled), total)
	}
	if m.IllegalTransitions != 0 {
		t.Errorf("IllegalTransitions = %d, want 0", m.IllegalTransitions)
	}
	t.Logf("seed %d: %d done, %d failed, %d migrations, %d events",
		seed, m.Completed, m.Failed, m.Migrated, len(events))
}
