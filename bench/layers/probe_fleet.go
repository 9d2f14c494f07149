package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/qrm"
)

func init() { register("fleet", probeFleet) }

// backlogDepth is how many jobs are outstanding when submit_backlog times a
// Submit: the queue depth two sweep-burst callers build.
const backlogDepth = 128

// probeFleet is the scheduler rung: Submit (validate, mint, route, enqueue)
// and Submit -> terminal, which adds the device pool's claim, transpile (or
// its cache) and execution.
func probeFleet(e *env) error {
	f, _, err := e.workloadFleet("fleet")
	if err != nil {
		return err
	}
	defer f.Stop()
	ctx := context.Background()
	req := func(j job) qrm.Request { return qrm.Request{Circuit: j.Circuit, Shots: j.Shots, User: j.User} }

	var submit, toTerminal []time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, j := range e.jobs {
		var took time.Duration
		d, err := e.timed(i, spanFleet, spanMQSS, func() error {
			t0 := time.Now()
			id, err := f.Submit(req(j), fleet.SubmitOptions{})
			took = time.Since(t0)
			if err != nil {
				return err
			}
			rec, err := f.WaitContext(ctx, id)
			if err != nil {
				return err
			}
			if rec.Status != fleet.JobDone {
				return fmt.Errorf("job %d settled %s: %s", id, rec.Status, rec.Error)
			}
			return nil
		})
		if err != nil {
			return err
		}
		submit, toTerminal = append(submit, took), append(toTerminal, d)
	}
	runtime.ReadMemStats(&after)
	e.metrics["fleet.submit_us_p50"] = p50us(submit)
	e.metrics["fleet.submit_to_terminal_us_p50"] = p50us(toTerminal)
	e.metrics["fleet.allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(len(e.jobs))

	// Submit with a queue behind it: the first backlogDepth submissions
	// build the backlog (two workers drain far slower than one goroutine
	// submits), the rest are timed.
	var backlog []time.Duration
	ids := make([]int, 0, backlogDepth+len(e.jobs))
	for k := 0; k < backlogDepth+len(e.jobs); k++ {
		j := e.jobs[k%len(e.jobs)]
		t0 := time.Now()
		id, err := f.Submit(req(j), fleet.SubmitOptions{})
		if err != nil {
			return err
		}
		if k >= backlogDepth {
			backlog = append(backlog, time.Since(t0))
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := f.WaitContext(ctx, id); err != nil {
			return err
		}
	}
	e.metrics["fleet.submit_backlog_us_p50"] = p50us(backlog)
	return nil
}
