package fleet

import (
	"bytes"
	"strconv"

	"repro/internal/jsonwire"
)

// A job and its result write their own JSON: the durable store journals a
// job at every transition under the scheduler's lock, so the record skips
// reflection. The bytes are exactly what encoding/json writes for the
// structs (the durable package's TestJobRecordJSONMatchesReflection holds
// every field to that), so journals written before read the same.

// AppendJSON appends the job's JSON object to b.
func (j *Job) AppendJSON(b []byte) ([]byte, error) {
	b, _, err := j.appendRecord(b)
	return b, err
}

// appendRecord is AppendJSON that also says where the request and the
// result lie in what it appended (recordAt).
func (j *Job) appendRecord(b []byte) ([]byte, recordAt, error) {
	return j.writeRecord(b, true, nil)
}

// writeRecord is appendRecord that, without circuit, writes the request's
// circuit null, for the arena to cut out (sealed.go), and that splices res,
// j.Result rendered already, in place of rendering it (nil: render it).
func (j *Job) writeRecord(b []byte, circuit bool, res []byte) ([]byte, recordAt, error) {
	var err error
	var at recordAt
	start := len(b)
	mark := func() uint32 { return uint32(len(b) - start) }
	b = strconv.AppendInt(append(b, `{"id":`...), int64(j.ID), 10)
	b = jsonwire.AppendString(append(b, `,"status":`...), string(j.Status))
	if j.Device != "" {
		b = jsonwire.AppendString(append(b, `,"device":`...), j.Device)
	}
	if j.Migrations != 0 {
		b = strconv.AppendInt(append(b, `,"migrations":`...), int64(j.Migrations), 10)
	}
	if j.Score != 0 {
		if b, err = jsonwire.AppendFloat(append(b, `,"score":`...), j.Score); err != nil {
			return nil, at, err
		}
	}
	if j.Pinned != "" {
		b = jsonwire.AppendString(append(b, `,"pinned":`...), j.Pinned)
	}
	b = append(b, `,"request":`...)
	at.req = mark()
	req := j.Request
	if !circuit {
		req.Circuit = nil
	}
	if b, err = req.AppendJSON(b); err != nil {
		return nil, at, err
	}
	at.reqEnd = mark()
	// The request's fields after its circuit start at its last `,"shots":`:
	// no JSON string holds those bytes unescaped, so none follows them.
	at.shots = at.req + uint32(bytes.LastIndex(b[start+int(at.req):], []byte(`,"shots":`)))
	if j.Result != nil {
		b = append(b, `,"result":`...)
		at.res = mark()
		if res != nil {
			b = append(b, res...)
		} else if b, err = j.Result.AppendJSON(b); err != nil {
			return nil, at, err
		}
		at.resEnd = mark()
	}
	if j.Error != "" {
		b = jsonwire.AppendString(append(b, `,"error":`...), j.Error)
	}
	if j.Recovered {
		b = append(b, `,"recovered":true`...)
	}
	if j.Node != "" {
		b = jsonwire.AppendString(append(b, `,"node":`...), j.Node)
	}
	if j.IdemKey != "" {
		b = jsonwire.AppendString(append(b, `,"idem_key":`...), j.IdemKey)
	}
	return append(b, '}'), at, nil
}

// AppendJSON appends the result's JSON object to b.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	b, err := r.AppendFields(append(b, '{'))
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// AppendFields appends the members of the result's JSON object to b, without
// its braces: the v2 job record writes them inline among its own. On an
// error it returns b as far as it got, as jsonwire.AppendFloat does.
func (r *Result) AppendFields(b []byte) ([]byte, error) { return renderFields(r, b) }

// renderFields is AppendFields' body, a variable only so that a test can
// count renders (export_test.go).
var renderFields = (*Result).appendFields

func (r *Result) appendFields(b []byte) ([]byte, error) {
	var err error
	float := func(name string, f float64) {
		if err == nil {
			b, err = jsonwire.AppendFloat(append(b, name...), f)
		}
	}
	if r.CompiledGates != 0 {
		b = strconv.AppendInt(append(b, `"compiled_gates":`...), int64(r.CompiledGates), 10)
		b = append(b, ',')
	}
	if r.CZCount != 0 {
		b = strconv.AppendInt(append(b, `"cz_count":`...), int64(r.CZCount), 10)
		b = append(b, ',')
	}
	if len(r.Layout) > 0 {
		b = append(b, `"layout":[`...)
		for i, q := range r.Layout {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(q), 10)
		}
		b = append(b, "],"...)
	}
	if r.CompileStats != "" {
		b = jsonwire.AppendString(append(b, `"compile_stats":`...), r.CompileStats)
		b = append(b, ',')
	}
	if len(r.Counts) > 0 {
		b = r.Counts.AppendJSON(append(b, `"counts":`...))
		b = append(b, ',')
	}
	if r.DurationUs != 0 {
		float(`"duration_us":`, r.DurationUs)
		b = append(b, ',')
	}
	float(`"submit_time":`, r.SubmitTime)
	if r.EndTime != 0 {
		float(`,"end_time":`, r.EndTime)
	}
	return b, err
}
