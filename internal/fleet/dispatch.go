package fleet

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/qrm"
	"repro/internal/telemetry/trace"
	"repro/internal/transpile"
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

// runLocked routes a claimed job to e, runs it on e with s.mu released,
// and settles it. Caller holds s.mu.
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
	span := j.rootSpan.StartChild("on-device", trace.Str("device", e.name))
	req, enqueued := j.Request, j.enqueued
	s.mu.Unlock()
	e.queueWait.Observe(msSince(enqueued))
	var rec *Result
	var errMsg string
	labels := pprof.Labels("qrm_job", strconv.Itoa(j.ID), "device", e.dev.QPU().Name())
	pprof.Do(context.Background(), labels, func(context.Context) {
		rec, errMsg = s.execute(e, j, &req, span)
	})
	if rec != nil && errMsg == "" {
		e.e2e.Observe(msSince(enqueued))
	}
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
		span.End(trace.Str("outcome", string(JobCancelled)))
		e.cancelled++
		s.finalizeLocked(j, JobCancelled, nil, "")
	case errMsg == "":
		span.End(trace.Str("outcome", string(JobDone)))
		e.completed++
		s.finalizeLocked(j, JobDone, rec, "")
	case e.state == DeviceFailed && !s.closed:
		// The backend faulted under the job: failover, not a job defect.
		// The job goes back to the queue — the one move back it can make.
		span.End(trace.Str("outcome", string(JobFailed)), trace.Str("error", errMsg))
		j.Migrations++
		e.migratedOut++
		s.migrated++
		j.Result = nil
		s.transitionLocked(j, JobQueued, "migrated")
		j.Device = ""
		s.enqueueLocked(j)
	default:
		span.End(trace.Str("outcome", string(JobFailed)), trace.Str("error", errMsg))
		e.failed++
		s.finalizeLocked(j, JobFailed, rec, errMsg)
	}
}

// execute JIT-compiles req on e against the device's current calibration
// epoch, publishes the compile artefacts as j's result — unless a cancel
// landed, which ends the run short of the QPU with a nil result — and runs
// it. It returns a result the scheduler has not seen, with the counts on
// success or an error message on failure; a compile failure's result
// carries only the submission instant. The compile and execute spans nest
// under span. Runs with s.mu released.
func (s *Scheduler) execute(e *deviceEntry, j *Job, req *qrm.Request, span *trace.Span) (*Result, string) {
	placement := transpile.PlaceFidelityAware
	if req.StaticPlacement {
		placement = transpile.PlaceStatic
	}
	// One lookup in the epoch's compile map yields both the placement and
	// the engine program, so a repeated circuit (the VQE measurement loop)
	// compiles once per epoch, and a drift tick mid-dispatch cannot place
	// the job on one calibration and simulate it on the next (Fig. 3 loop).
	qpu := e.dev.QPU()
	ep := qpu.Epoch()
	compileStart := time.Now()
	compileSpan := span.StartChild("compile")
	cp, hit, err := ep.Prepare(req.Circuit, placement)
	epoch := trace.Int64("epoch", int64(ep.Num))
	switch {
	case hit:
		compileSpan.End(trace.Str("cache", "hit"), epoch)
	case err != nil:
		compileSpan.End(trace.Str("cache", "miss"), epoch)
	default:
		compileSpan.End(trace.Str("cache", "miss"), epoch, trace.Int("cz", cp.Result().Stats.OutputCZ), trace.Int("swaps", cp.Result().Stats.SwapsInserted))
	}
	if !hit {
		// This worker compiled (successfully or not): a real miss.
		e.cacheMisses.Add(1)
		e.compile.Observe(msSince(compileStart))
	} else if err == nil {
		// Waiters on a failed flight got an error, not a reused result —
		// only successful reuse counts as a hit.
		e.cacheHits.Add(1)
	}
	if err != nil {
		return &Result{SubmitTime: j.submitTime}, fmt.Sprintf("compile: %v", err)
	}
	tr := cp.Result()
	res := &Result{
		CompiledGates: tr.Stats.OutputGates,
		CZCount:       tr.Stats.OutputCZ,
		Layout:        tr.FinalLayout[:req.Circuit.NumQubits],
		CompileStats:  tr.Stats.String(),
		SubmitTime:    j.submitTime,
	}
	s.mu.Lock()
	cancelled := j.cancelReq
	if !cancelled {
		j.Result = res
	}
	s.mu.Unlock()
	if cancelled {
		return nil, ""
	}

	// Readers share the published result: what settles is a copy.
	out := *res
	execStart := time.Now()
	execSpan := span.StartChild("execute",
		trace.Int("shots", req.Shots), trace.Int("gates", out.CompiledGates))
	run, err := qpu.Run(trace.ContextWithSpan(context.Background(), execSpan), cp, req.Shots)
	execSpan.End()
	e.exec.Observe(msSince(execStart))
	if err != nil {
		return &out, fmt.Sprintf("execute: %v", err)
	}
	out.Counts, out.DurationUs = run.Counts, run.DurationUs
	return &out, ""
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }
