package fleet

import (
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
	var err error
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
			return nil, err
		}
	}
	if j.Pinned != "" {
		b = jsonwire.AppendString(append(b, `,"pinned":`...), j.Pinned)
	}
	if b, err = j.Request.AppendJSON(append(b, `,"request":`...)); err != nil {
		return nil, err
	}
	if j.Result != nil {
		if b, err = j.Result.AppendJSON(append(b, `,"result":`...)); err != nil {
			return nil, err
		}
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
	return append(b, '}'), nil
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
// its braces: the v2 job record writes them inline among its own. The
// result is encoded into its stored form (sealed.go) past b's end and
// rendered from those bytes, as a sealed job's is (Record.AppendResultFields),
// so live and sealed jobs show the bytes of one writer. On an error it
// returns b as far as it got, as jsonwire.AppendFloat does.
func (r *Result) AppendFields(b []byte) ([]byte, error) {
	n := len(b)
	b, _ = encodeResult(r, b)
	m := len(b)
	// The render appends past m, so it never writes the bytes it reads.
	rd := readStored(b[n:m])
	b, err := appendResultFields(b, &rd)
	return append(b[:n], b[m:]...), err
}

// appendResultFields renders the stored result r reads as the members of
// its JSON object, the bytes encoding/json writes for the Result struct
// without its braces. It is the one writer of a result's JSON. On an error
// it returns b as far as it got.
func appendResultFields(b []byte, r *storedReader) ([]byte, error) {
	var err error
	float := func(name string, f float64) {
		if err == nil {
			b, err = jsonwire.AppendFloat(append(b, name...), f)
		}
	}
	if n := r.Int(); n != 0 {
		b = strconv.AppendInt(append(b, `"compiled_gates":`...), int64(n), 10)
		b = append(b, ',')
	}
	if n := r.Int(); n != 0 {
		b = strconv.AppendInt(append(b, `"cz_count":`...), int64(n), 10)
		b = append(b, ',')
	}
	if n := r.Count(1); n > 0 {
		b = append(b, `"layout":[`...)
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(r.Int()), 10)
		}
		b = append(b, "],"...)
	}
	if s := r.Str(); s != "" {
		b = jsonwire.AppendString(append(b, `"compile_stats":`...), s)
		b = append(b, ',')
	}
	// The record stores duration_us before the counts, among the members
	// its jobs share; the JSON writes it after them.
	duration := r.Float()
	if n := r.Count(2); n > 0 {
		b = append(b, `"counts":{`...)
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, '"'), int64(r.Int()), 10)
			b = strconv.AppendInt(append(b, `":`...), int64(r.Int()), 10)
		}
		b = append(b, "},"...)
	}
	if duration != 0 {
		float(`"duration_us":`, duration)
		b = append(b, ',')
	}
	float(`"submit_time":`, r.Float())
	if f := r.Float(); f != 0 {
		float(`,"end_time":`, f)
	}
	if err == nil {
		err = r.Err
	}
	return b, err
}
