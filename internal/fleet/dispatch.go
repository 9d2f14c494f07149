package fleet

import (
	"runtime"
	"time"

	"repro/internal/qrm"
	"repro/internal/telemetry/trace"
)

// This file is late binding: each device's workers claim from the one queue
// and run what they claim inline. A job is bound to a device only when a
// worker of that device claims it, so the routing decision reads the
// calibration and the load of that moment, and a device that drains or
// fails simply stops claiming — nothing queued has to move.

// serve is one of e's workers: claim, run, settle, repeat, until Stop.
func (s *Scheduler) serve(e *deviceEntry) {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if j := s.claimLocked(e); j != nil {
			s.runLocked(e, j)
			// Settling j readied its waiters (Wait callers, event
			// subscribers) on this worker's P, where they would sit for the
			// whole next job unless another P happens to be idle: let them
			// run before claiming again.
			s.mu.Unlock()
			runtime.Gosched()
			s.mu.Lock()
			continue
		}
		e.wake.Wait()
	}
}

// claimLocked takes the first job in fair order that e may run now: e is
// eligible for it and the job's policy, evaluated over every eligible
// device, names e. A job whose dispatch deadline passed in the queue fails
// here instead. Returns nil when e should wait.
func (s *Scheduler) claimLocked(e *deviceEntry) *Job {
	if e.state != DeviceActive {
		return nil
	}
	now := time.Now()
	for {
		j := s.queue.claim(now, func(j *Job) bool {
			if !s.eligibleLocked(e, j) {
				return false
			}
			picked, _ := s.pickLocked(j)
			return picked == e
		})
		if j == nil || !j.expired(now) {
			return j
		}
		e.expired++
		e.failed++
		s.finalizeLocked(j, JobFailed, nil, qrm.ErrDeadlineMsg)
	}
}

// runLocked routes a claimed job to e, runs it through e's QRM stage with
// s.mu released, and settles it. Caller holds s.mu.
func (s *Scheduler) runLocked(e *deviceEntry, j *Job) {
	score := s.fidelityLocked(j, e)
	if j.policy == PolicyRoundRobin {
		s.rr++
	}
	j.qwSpan.End()
	j.rootSpan.StartChild("route", trace.Str("device", e.name)).End()
	j.Device, j.Score = e.name, score
	s.transitionLocked(j, JobRouted, "")
	e.routed++
	s.routed++
	e.scoreHist.Observe(score)
	s.scoreHist.Observe(score)
	e.inflight++
	if s.queue.Len() > 0 {
		s.wakeAllLocked() // e's load rose: a sibling may now be the better choice
	}
	leg := &qrm.Job{ID: j.ID, Status: qrm.StatusCompiling, Request: j.Request, SubmitTime: j.submitTime}
	span := j.rootSpan.StartChild("on-device", trace.Str("device", e.name))
	enqueued := j.enqueued
	s.mu.Unlock()
	e.mgr.Run(leg, enqueued, span, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.cancelReq {
			return false
		}
		cp := *leg
		j.Result = &cp
		return true
	})
	s.mu.Lock()
	e.inflight--
	if s.queue.Len() > 0 {
		// A calibration published while the job ran may have moved the
		// queue's best device away from e, and nothing else wakes the
		// siblings for it.
		s.wakeAllLocked()
	}

	switch {
	case j.cancelReq:
		// A cancel raced the run (and stopped it short of the QPU if it
		// landed in time): the request wins, whatever the device produced.
		// Discarding the result is what cancellation means.
		span.End(trace.Str("outcome", string(qrm.StatusCancelled)))
		e.cancelled++
		s.finalizeLocked(j, JobCancelled, nil, "")
	case leg.Status == qrm.StatusDone:
		span.End(trace.Str("outcome", string(qrm.StatusDone)))
		e.completed++
		s.finalizeLocked(j, JobDone, leg, "")
	case e.state == DeviceFailed && !s.closed:
		// The backend faulted under the job: failover, not a job defect.
		// The job goes back to the queue — the one move back it can make.
		span.End(trace.Str("outcome", string(qrm.StatusFailed)), trace.Str("error", leg.Error))
		j.Migrations++
		e.migratedOut++
		s.migrated++
		j.Result = nil
		s.transitionLocked(j, JobQueued, "migrated")
		j.Device = ""
		s.enqueueLocked(j)
	default:
		span.End(trace.Str("outcome", string(qrm.StatusFailed)), trace.Str("error", leg.Error))
		e.failed++
		s.finalizeLocked(j, JobFailed, leg, leg.Error)
	}
}
