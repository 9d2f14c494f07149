package main

import (
	"context"
	"time"

	"repro/internal/fleet"
	"repro/internal/qrm"
)

func init() { register("durable", probeDurable) }

// probeDurable times the store by itself on a durable workload: one journal
// append waited to stable storage (what every acknowledged transition pays
// when nothing else is in the group), then a compaction of what the rungs
// above left in it. On a storeless workload the rows are zero.
func probeDurable(e *env) error {
	rows := []string{"durable.journal_wait_us_p50", "durable.compact_ms", "durable.snapshot_bytes_per_job"}
	for _, r := range rows {
		e.metrics[r] = 0
	}
	if !e.w.Durable {
		return nil
	}
	for _, r := range rows {
		delete(e.metrics, r) // missing, not zero, if the probe fails from here on
	}
	f, store, err := e.workloadFleet("durable")
	if err != nil {
		return err
	}
	defer f.Stop()
	ctx := context.Background()
	recs := make([]*fleet.Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		id, err := f.Submit(qrm.Request{Circuit: j.Circuit, Shots: j.Shots, User: j.User}, fleet.SubmitOptions{})
		if err != nil {
			return err
		}
		rec, err := f.WaitContext(ctx, id)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	var wait []time.Duration
	for _, rec := range recs {
		t0 := time.Now()
		store.WaitDurable(store.JournalFleetJob(rec))
		wait = append(wait, time.Since(t0))
	}
	t0 := time.Now()
	if err := store.Compact(); err != nil {
		return err
	}
	e.metrics["durable.compact_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	e.metrics["durable.journal_wait_us_p50"] = p50us(wait)
	e.metrics["durable.snapshot_bytes_per_job"] = float64(store.Stats().WALBytes) / float64(len(recs))
	return nil
}
