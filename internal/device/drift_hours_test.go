package device

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestDriftHoursMatchHourlyDrift: AdvanceDriftHours(n) leaves the device
// n calls of AdvanceDrift(1) leave — the same calibration bytes, the same
// epoch number and the same TLS defects — and the next recalibration, which
// draws from the device's own generator, agrees too.
func TestDriftHoursMatchHourlyDrift(t *testing.T) {
	for _, n := range []int{0, 1, 2, 81} {
		for _, twin := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/twin=%v", n, twin), func(t *testing.T) {
				hourly, once := New20Q(7), New20Q(7)
				if twin {
					hourly, once = NewTwin20Q(7), NewTwin20Q(7)
				}
				for h := 0; h < n; h++ {
					hourly.AdvanceDrift(1)
				}
				once.AdvanceDriftHours(n)
				same(t, "after the drift", hourly, once)
				hourly.Recalibrate(true)
				once.Recalibrate(true)
				same(t, "after a full recalibration", hourly, once)
			})
		}
	}
}

// same fails t unless devices a and b serve the same epoch number,
// calibration and TLS defects.
func same(t *testing.T, when string, a, b *QPU) {
	t.Helper()
	if x, y := a.Epoch().Num, b.Epoch().Num; x != y {
		t.Errorf("%s: epoch %d hour by hour, %d at once", when, x, y)
	}
	if x, y := a.ActiveTLSCount(), b.ActiveTLSCount(); x != y {
		t.Errorf("%s: %d TLS defects hour by hour, %d at once", when, x, y)
	}
	x, err := json.Marshal(a.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	y, err := json.Marshal(b.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	if string(x) != string(y) {
		t.Errorf("%s: the calibrations differ\nhour by hour %.200s…\nat once      %.200s…", when, x, y)
	}
}
