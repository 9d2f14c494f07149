package fleet

// What the package's external tests (package fleet_test, which may import
// the API and durable layers above this package) use to land an event
// between a job's claim and its compile: a window no caller can time.

// claimHook journals through JobStore and runs at, under the scheduler's
// lock, when job id's claim is journaled.
type claimHook struct {
	JobStore
	id int
	at func(j *Job)
}

func (h claimHook) JournalFleetJob(j *Job) uint64 {
	if j.ID == h.id && j.Status == JobRouted {
		h.at(j)
	}
	return h.JobStore.JournalFleetJob(j)
}

// CancelAtClaim wraps st: a Cancel of job id lands right after its claim.
func (s *Scheduler) CancelAtClaim(st JobStore, id int) JobStore {
	return claimHook{st, id, func(j *Job) { j.cancelReq = true }}
}

// FailAtClaim wraps st: the device that claims job id fails right after the
// claim, so a run that errors on it fails over.
func (s *Scheduler) FailAtClaim(st JobStore, id int) JobStore {
	return claimHook{st, id, func(j *Job) { s.setStateLocked(s.devices[j.Device], DeviceFailed) }}
}
