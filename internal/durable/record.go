package durable

import (
	"strconv"

	"repro/internal/fleet"
	"repro/internal/jsonwire"
)

// Record kinds: the first payload byte tags how the JSON body decodes.
const (
	recLegacyQRMJob = 'Q' // read-only: pre-fleet single-device job upsert (legacyFleetJob)
	recFleetJob     = 'F' // fleetJobRecord — a job's whole record: its submission, and each job of a snapshot
	recFleetUpdate  = 'U' // fleetJobUpdate — a later transition, overlaid on the job's record
	recLegacyIdem   = 'I' // read-only: key → job-ID binding from before Job.IdemKey (legacyIdemRecord)
	recMeta         = 'M' // metaRecord — snapshot header
)

// fleetJobRecord wraps a fleet job for the journal. SubmitUnixMs rides
// outside the job because fleet.Job's JSON shape excludes it (json:"-"); the
// store persists it so the dispatch deadline keeps its original budget
// across a restart.
type fleetJobRecord struct {
	SubmitUnixMs int64      `json:"submit_unix_ms,omitempty"`
	Job          *fleet.Job `json:"job"`
}

// fleetJobUpdate is the body of a 'U' record: every field of a job that a
// transition after its submission may change, under the job's own JSON
// names. The request, pin, node and key are the submission's and never
// repeat. Folding an update onto the job's record (apply) replaces each of
// these fields, so a field the update leaves out reads zero — except
// SubmitUnixMs, which only the frames of a recovered job carry (Restore
// stamps a record that had none) and which is otherwise the submission's.
type fleetJobUpdate struct {
	ID           int             `json:"id"`
	Status       fleet.JobStatus `json:"status"`
	Device       string          `json:"device,omitempty"`
	Migrations   int             `json:"migrations,omitempty"`
	Score        float64         `json:"score,omitempty"`
	Result       *fleet.Result   `json:"result,omitempty"`
	Error        string          `json:"error,omitempty"`
	Recovered    bool            `json:"recovered,omitempty"`
	SubmitUnixMs int64           `json:"submit_unix_ms,omitempty"`
}

// apply overlays u onto j, the job as folded so far.
func (u *fleetJobUpdate) apply(j *fleet.Job) {
	j.Status, j.Device, j.Migrations, j.Score = u.Status, u.Device, u.Migrations, u.Score
	j.Result, j.Error, j.Recovered = u.Result, u.Error, u.Recovered
	if u.SubmitUnixMs != 0 {
		j.SubmitUnixMs = u.SubmitUnixMs
	}
}

type metaRecord struct {
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	SavedUnixMs int64  `json:"saved_unix_ms"`
}

// The encoders below append a record's payload — its kind byte and body —
// to b without reflection, byte for byte what encoding/json writes for the
// record struct (TestJobRecordJSONMatchesReflection). On error (a value
// JSON cannot spell) they return nil.

// appendJobRecord appends j's 'F' record.
func appendJobRecord(b []byte, j *fleet.Job) ([]byte, error) {
	b = append(b, recFleetJob, '{')
	if j.SubmitUnixMs != 0 {
		b = strconv.AppendInt(append(b, `"submit_unix_ms":`...), j.SubmitUnixMs, 10)
		b = append(b, ',')
	}
	b, err := j.AppendJSON(append(b, `"job":`...))
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendUpdateRecord appends the 'U' record of j's latest transition, with
// result, j.Result's JSON object as the scheduler rendered it, spliced in
// (nil: the move has none).
func appendUpdateRecord(b []byte, j *fleet.Job, result []byte) ([]byte, error) {
	b = strconv.AppendInt(append(b, `U{"id":`...), int64(j.ID), 10)
	b = jsonwire.AppendString(append(b, `,"status":`...), string(j.Status))
	if j.Device != "" {
		b = jsonwire.AppendString(append(b, `,"device":`...), j.Device)
	}
	if j.Migrations != 0 {
		b = strconv.AppendInt(append(b, `,"migrations":`...), int64(j.Migrations), 10)
	}
	var err error
	if j.Score != 0 {
		if b, err = jsonwire.AppendFloat(append(b, `,"score":`...), j.Score); err != nil {
			return nil, err
		}
	}
	if result != nil {
		b = append(append(b, `,"result":`...), result...)
	}
	if j.Error != "" {
		b = jsonwire.AppendString(append(b, `,"error":`...), j.Error)
	}
	if j.Recovered {
		b = append(b, `,"recovered":true`...)
		if j.SubmitUnixMs != 0 {
			b = strconv.AppendInt(append(b, `,"submit_unix_ms":`...), j.SubmitUnixMs, 10)
		}
	}
	return append(b, '}'), nil
}

// appendMetaRecord appends a snapshot header's 'M' record.
func appendMetaRecord(b []byte, r metaRecord) []byte {
	b = strconv.AppendUint(append(b, `M{"snapshot_lsn":`...), r.SnapshotLSN, 10)
	b = strconv.AppendInt(append(b, `,"saved_unix_ms":`...), r.SavedUnixMs, 10)
	return append(b, '}')
}
