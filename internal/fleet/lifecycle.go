package fleet

import (
	"errors"
	"fmt"
)

// JobStatus is the job lifecycle state — the one spelling the scheduler
// stores, the WAL journals, watch feeds carry and the v2 API serves.
// A queued job waits in the fleet's queue; a routed job is held by one
// device's worker, compiling or on the QPU. Running is never stored: it is
// how Scheduler.Job relabels its copy of a routed job past its compile.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRouted    JobStatus = "routed"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// UnmarshalText reads a status, accepting "pending" — what journal frames
// called queued before the lifecycle had one spelling. Restore re-journals
// every in-flight job, so the old spelling does not outlive a restart.
func (s *JobStatus) UnmarshalText(text []byte) error {
	*s = JobStatus(text)
	if *s == "pending" {
		*s = JobQueued
	}
	return nil
}

// edge is one legal move and the reason its event carries.
type edge struct {
	from, to JobStatus
	reason   string
}

// lifecycle is every move a job may make; a submission leaves "" (no status
// yet). mintLocked takes the first row, a device's claim the second, a
// failover (a run that failed on a failed device) the third, Restore the
// "recovered" re-queues and finalizeLocked the terminal block — DESIGN.md
// §Job lifecycle says when.
var lifecycle = map[edge]bool{
	{"", JobQueued, ""}:                 true,
	{JobQueued, JobRouted, ""}:          true,
	{JobRouted, JobQueued, "migrated"}:  true,
	{JobQueued, JobQueued, "recovered"}: true,
	{JobRouted, JobQueued, "recovered"}: true,

	{JobQueued, JobFailed, ""}:    true,
	{JobQueued, JobCancelled, ""}: true,
	{JobRouted, JobDone, ""}:      true,
	{JobRouted, JobFailed, ""}:    true,
	{JobRouted, JobCancelled, ""}: true,
}

// ParseJobStatus validates a user-supplied status (a listing filter): one
// the table can reach, or running.
func ParseJobStatus(v string) (JobStatus, error) {
	s := JobStatus(v)
	for e := range lifecycle {
		if s == e.to || s == JobRunning {
			return s, nil
		}
	}
	return "", fmt.Errorf("unknown job state %q", v)
}

// ErrNoJob (the ID names no job) and ErrJobTerminal (it settled; nothing is
// left to cancel) classify job-addressed failures for errors.Is. Their texts
// are the words the messages wrap: "fleet: no job 7", "… job 7 already done".
// ErrKeyReused refuses a submission whose Idempotency-Key the tenant already
// bound to another request (sameRequestLocked): nothing is minted or bound.
var (
	ErrNoJob       = errors.New("fleet: no job")
	ErrJobTerminal = errors.New("already")
	ErrKeyReused   = errors.New("fleet: Idempotency-Key reused with another request")
)

// transitionLocked moves j to status to — the only write of Job.Status in
// the package (TestStatusHasOneWriter). The caller has already set whatever
// else the move changes (device, result, error); res is j.Result as
// finalizeLocked rendered it, nil for a move without a result. The move is
// journaled here, then published, so a job's watchers see exactly the
// stream the WAL replays: the table's first row (the mint) journals the
// whole record, request included, and every other row an update of the
// fields a move after the mint may change (JobStore). An edge missing from
// the table still proceeds — refusing would strand the job — but is
// counted. Events carry the maintenance clock in simulation seconds.
// Caller holds s.mu.
func (s *Scheduler) transitionLocked(j *Job, to JobStatus, reason string, res []byte) {
	from := j.Status
	if !lifecycle[edge{from, to, reason}] {
		s.illegal++
	}
	j.Status = to
	switch {
	case s.jstore == nil:
	case from == "":
		s.walTail = s.jstore.JournalFleetJob(j)
	default:
		s.walTail = s.jstore.JournalFleetUpdate(j, res)
	}
	s.publishLocked(j, Event{
		JobID:  j.ID,
		From:   from,
		To:     to,
		Device: j.Device,
		Reason: reason,
		Time:   s.nowDay * 86400,
	})
}
