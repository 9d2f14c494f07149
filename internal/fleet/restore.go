package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/qrm"
	"repro/internal/telemetry/trace"
)

// RestoreStats reports what Restore did with the recovered fleet records.
type RestoreStats struct {
	Terminal int `json:"terminal"` // re-entered history untouched
	Requeued int `json:"requeued"` // queued again under their original IDs
	Expired  int `json:"expired"`  // past deadline while down; failed with the interrupted error
}

// Restore loads recovered fleet job records into an empty scheduler.
// Terminal jobs become history; jobs that were queued or routed when the
// process died go back on the queue under their *original* IDs — a device
// claims each afresh, and a job whose terminal record missed its fsync runs
// again (at-least-once semantics). Jobs past their dispatch deadline fail
// with the retryable interrupted error instead. Every restored job is
// marked Recovered and republished (reason "recovered"), so re-attached
// watch streams and the fresh WAL segment see the post-restart state. The
// Idempotency-Key dedup window is rebuilt from the jobs' IdemKey, each
// under its job's tenant, in job-ID order, so the newest idemWindow keys
// survive.
func (s *Scheduler) Restore(jobs []*Job) (RestoreStats, error) {
	var stats RestoreStats
	sorted := make([]*Job, len(jobs))
	copy(sorted, jobs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return stats, fmt.Errorf("fleet: scheduler stopped")
	}
	if n := s.arena.index.len(); n > 0 {
		return stats, fmt.Errorf("fleet: restore into a non-empty scheduler (%d jobs present)", n)
	}
	nowMs := time.Now().UnixMilli()
	for _, src := range sorted {
		if src == nil || src.ID <= 0 {
			continue
		}
		cp := *src
		j := &cp
		j.done = make(chan struct{})
		j.Recovered = true
		// The job's routing preference survives through Pinned (serialized);
		// the per-job policy override died with the process, so recovered
		// jobs route under the scheduler default.
		j.policy = s.policy
		j.submitTime = s.nowDay * 86400
		j.tr, j.rootSpan, j.qwSpan = nil, trace.Span{}, trace.Span{}
		if j.SubmitUnixMs <= 0 {
			j.SubmitUnixMs = nowMs
		}

		if j.ID > s.nextID {
			s.nextID = j.ID
		}
		s.addLocked(j)
		s.bindLocked(j, 0)

		if j.Status.Terminal() {
			s.sealLocked(j, nil, 0)
			stats.Terminal++
			continue
		}

		j.Device = ""
		j.Result = nil
		j.Error = ""
		s.queue.stats(j.Request.User).Submitted++
		if j.Request.DeadlineMs > 0 &&
			float64(nowMs-j.SubmitUnixMs) > j.Request.DeadlineMs {
			// Straight from the status it crashed in: an expired job is never
			// re-queued, so it takes no "recovered" edge.
			s.finalizeLocked(j, JobFailed, nil, qrm.ErrInterruptedMsg)
			stats.Expired++
			continue
		}
		j.tr = trace.New("job",
			trace.Int("job_id", j.ID), trace.Str("user", j.Request.User))
		j.rootSpan = j.tr.Root()
		s.transitionLocked(j, JobQueued, "recovered", nil)
		s.enqueueLocked(j)
		stats.Requeued++
	}
	s.restored = stats
	return stats, nil
}

// Restored reports what Restore did with the recovered jobs (zero without
// a restore), for the store admin endpoint and its metric.
func (s *Scheduler) Restored() RestoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored
}
