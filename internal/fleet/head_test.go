package fleet

import (
	"math/rand"
	"reflect"
	"testing"
)

// fillRandom sets every settable field reachable from v to a random value
// (zero a third of the time), so a field one reader forgets shows up as a
// difference.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	if rng.Intn(3) == 0 && v.Kind() != reflect.Struct {
		v.Set(reflect.Zero(v.Type()))
		return
	}
	switch v.Kind() {
	case reflect.String:
		strs := []string{"done", "garnet-20", "u0", "<&>", "é", "a\"b", " ", "k-17"}
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Intn(2000) - 100))
	case reflect.Float64:
		fs := []float64{0.5, 1e-9, 3e21, -2.25, 1234.5678, rng.Float64()}
		v.SetFloat(fs[rng.Intn(len(fs))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Slice:
		n := rng.Intn(5)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := rng.Intn(40); i > 0; i-- {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillRandom(rng, k)
			fillRandom(rng, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillRandom(rng, p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillRandom(rng, v.Field(i))
			}
		}
	}
}

// TestJobHeadMatchesRecordHead: a live job and the record it seals into have
// the same Head, so a field one constructor sets and the other does not
// shows up here before a sealed job's v2 record drifts from the live one's.
func TestJobHeadMatchesRecordHead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var j Job
		fillRandom(rng, reflect.ValueOf(&j).Elem())
		rec, _ := j.appendStored(nil)
		got, err := Record{ID: j.ID, stored: rec}.Head()
		if want := j.Head(); err != nil || got != want {
			t.Fatalf("job %d: record head %+v (%v), job head %+v\n%x", i, got, err, want, rec)
		}
	}
}
