package e2e

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"
)

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a, b := Generate(w, 42, 300), Generate(w, 42, 300)
		other := Generate(w, 43, 300)
		same := true
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Key != b[i].Key {
				t.Fatalf("%s: input %d differs between two generations from seed 42", w.Name, i)
			}
			same = same && bytes.Equal(a[i].Body, other[i].Body)
		}
		if same {
			t.Errorf("%s: seeds 42 and 43 generated the same 300 bodies", w.Name)
		}
	}
}

func TestGeneratedBodiesAreTheWireShape(t *testing.T) {
	for _, w := range Workloads {
		for i, in := range Generate(w, 7, 40) {
			var body struct {
				Circuit struct {
					NumQubits int `json:"num_qubits"`
					Gates     []struct {
						Name   string    `json:"name"`
						Qubits []int     `json:"qubits"`
						Params []float64 `json:"params"`
					} `json:"gates"`
				} `json:"circuit"`
				Shots int    `json:"shots"`
				User  string `json:"user"`
			}
			if err := json.Unmarshal(in.Body, &body); err != nil {
				t.Fatalf("%s input %d: %v\n%s", w.Name, i, err, in.Body)
			}
			if body.Shots != w.Shots || body.Circuit.NumQubits != in.NumQubits || len(body.Circuit.Gates) == 0 || body.User == "" {
				t.Fatalf("%s input %d: decoded %+v", w.Name, i, body)
			}
			if (in.Key != "") != w.Keyed {
				t.Fatalf("%s input %d: key %q on a workload with Keyed=%v", w.Name, i, in.Key, w.Keyed)
			}
			if w.Circuits == CircuitsAnsatz && (in.Circ != nil) != (i < TVDSample) {
				t.Fatalf("%s input %d: circuit kept=%v, want only the first %d", w.Name, i, in.Circ != nil, TVDSample)
			}
		}
	}
}

func TestPercentileMedianQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 95); got != 7 {
		t.Errorf("Percentile of one sample = %g, want 7", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) || !math.IsNaN(Median(nil)) || !math.IsNaN(Midmean(nil)) {
		t.Error("no samples must read NaN, not a number that looks measured")
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median(9,1,5) = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median(4,1,3,2) = %g", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := Quartiles(s); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if q1, q3 := Quartiles([]float64{3, 1, 4, 1, 5}); q1 != 1 || q3 != 4.5 {
		t.Errorf("Quartiles(3,1,4,1,5) = %g, %g; Python gives 1, 4.5", q1, q3)
	}
}

func TestMidmean(t *testing.T) {
	// Eight windows, two of them slowed: ranks 2..5 (0-based) are kept.
	if got := Midmean([]float64{100, 100, 100, 60, 100, 70, 100, 100}); got != 100 {
		t.Errorf("Midmean dropped-quarters = %g, want 100", got)
	}
	// 1..8: keeps 3,4,5,6.
	if got := Midmean([]float64{8, 7, 6, 5, 4, 3, 2, 1}); got != 4.5 {
		t.Errorf("Midmean(1..8) = %g, want 4.5", got)
	}
}

func TestWindows(t *testing.T) {
	ms := time.Millisecond
	samples := []Sample{
		{Start: 0, End: 100 * ms, OK: true},         // window 0, 100 ms
		{Start: 500 * ms, End: 900 * ms, OK: true},  // window 0, 400 ms
		{Start: 950 * ms, End: 1050 * ms, OK: true}, // window 1 by completion, 100 ms
		{Start: 1100 * ms, End: 1200 * ms},          // failed: counted nowhere
		{Start: 2900 * ms, End: 3100 * ms, OK: true},
	}
	got := Windows(samples, []time.Duration{0, 1000 * ms, 2100 * ms, 3000 * ms})
	if len(got) != 3 {
		t.Fatalf("got %d windows, want 3", len(got))
	}
	if got[0].Jobs != 2 || got[0].LatMs[0] != 100 || got[0].LatMs[1] != 400 || got[0].Seconds != 1 || got[0].Dilation != 1 {
		t.Errorf("window 0 = %+v", got[0])
	}
	if got[1].Jobs != 1 || got[1].Seconds != 1.1 {
		t.Errorf("window 1 = %+v", got[1])
	}
	if got[2].Jobs != 0 {
		t.Errorf("window 2 = %+v: the job that ended after the last edge is outside", got[2])
	}
}

func TestDilationAndQuietest(t *testing.T) {
	// 110 busy ticks and 22 stolen: the work took 1.2x as long as it would have.
	if got := Dilation(BoxTicks{Busy: 1000, Steal: 50}, BoxTicks{Busy: 1110, Steal: 72}); got != 1.2 {
		t.Errorf("Dilation = %g, want 1.2", got)
	}
	if got := Dilation(BoxTicks{Busy: 1000}, BoxTicks{Busy: 1100}); got != 1 {
		t.Errorf("Dilation without steal = %g, want 1", got)
	}
	if got := Dilation(BoxTicks{}, BoxTicks{Steal: 9}); got != 1 {
		t.Errorf("Dilation of an interval with no busy tick = %g, want 1", got)
	}
	// 18 windows stretched 1.0 .. 2.7: the nine at or under the median stay.
	var wins []Window
	for i := 0; i < 18; i++ {
		wins = append(wins, Window{Jobs: 1, LatMs: []float64{float64(i)}, Dilation: 1 + float64((i*7)%18)/10})
	}
	q := Quietest(wins)
	if len(q) != 9 {
		t.Fatalf("Quietest kept %d of 18 windows, want 9", len(q))
	}
	for _, w := range q {
		if w.Dilation > 1.8 {
			t.Errorf("Quietest kept a window stretched %gx", w.Dilation)
		}
	}
	if got := Pool(q); len(got) != 9 || !sort.Float64sAreSorted(got) {
		t.Errorf("Pool = %v", got)
	}
	// A calm run keeps every window, not an arbitrary half.
	calm := []Window{{Dilation: 1}, {Dilation: 1.01}, {Dilation: 1}, {Dilation: 1.02}, {Dilation: 1.3}}
	if got := Quietest(calm); len(got) != 4 {
		t.Errorf("Quietest kept %d of 5 calm windows, want the 4 within %g", len(got), QuietTolerance)
	}
}

func TestAtNoSteal(t *testing.T) {
	// y = 2 + 5 (dilation - 1), one window hit by something else: the line
	// through the rest is read at 1.
	d := []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.05}
	y := []float64{2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 9.0}
	if got := AtNoSteal(d, y); math.Abs(got-2) > 1e-9 {
		t.Errorf("AtNoSteal = %g, want 2", got)
	}
	// Every window equally stretched: no slope to take out, the median stays.
	if got := AtNoSteal([]float64{1.01, 1.0, 1.01, 1.0, 1.01}, []float64{3, 1, 2, 5, 4}); got != 3 {
		t.Errorf("AtNoSteal without spread in dilation = %g, want the median 3", got)
	}
	// 3 KiB a job under one reading taken mid-GC.
	if slope, ok := TheilSen([]float64{0, 10, 20, 30, 40}, []float64{100, 130, 160, 190, 400}, 1); !ok || slope != 3 {
		t.Errorf("TheilSen = %g, %v; want 3, true", slope, ok)
	}
	if _, ok := TheilSen([]float64{0, 0, 0, 1}, []float64{1, 2, 3, 4}, 1); ok {
		t.Error("TheilSen with three pairs far enough apart must not be ok")
	}
	// Steal never speeds anything up: a falling line is not extrapolated.
	if got := AtNoSteal([]float64{1.0, 1.1, 1.2, 1.3, 1.4}, []float64{5, 4, 3, 2, 1}); got != 3 {
		t.Errorf("AtNoSteal on a falling line = %g, want the median 3", got)
	}
}

func TestIdealAndTVD(t *testing.T) {
	p, err := Ideal(ghz(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[15]-0.5) > 1e-12 {
		t.Errorf("GHZ(4): P(0000)=%g P(1111)=%g, want 0.5 each", p[0], p[15])
	}
	// rx(pi) flips, ry(pi/2) then rz leaves a fair coin, cz phases only.
	c := &Circuit{NumQubits: 2, Gates: []Gate{
		{Name: "rx", Qubits: []int{0}, Params: []float64{math.Pi}},
		{Name: "ry", Qubits: []int{1}, Params: []float64{math.Pi / 2}},
		{Name: "rz", Qubits: []int{1}, Params: []float64{0.3}},
		{Name: "cz", Qubits: []int{0, 1}},
	}}
	if p, err = Ideal(c); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 0.5, 0, 0.5} {
		if math.Abs(p[i]-want) > 1e-12 {
			t.Errorf("P(%d) = %g, want %g", i, p[i], want)
		}
	}
	if _, err := Ideal(&Circuit{NumQubits: 1, Gates: []Gate{{Name: "t", Qubits: []int{0}}}}); err == nil {
		t.Error("a gate the generator never emits must be an error, not silently skipped")
	}
	if d := TVD(map[int]int{1: 50, 3: 50}, p); d > 1e-12 {
		t.Errorf("TVD of the exact distribution = %g", d)
	}
	if d := TVD(map[int]int{0: 100}, p); math.Abs(d-1) > 1e-12 {
		t.Errorf("TVD of disjoint support = %g, want 1", d)
	}
}

// The negative controls: the checker must refuse results that are wrong.
func TestCheckerRejectsTamperedResults(t *testing.T) {
	qubits := map[string]int{"garnet-20": 20}
	good := func() *Record {
		return &Record{ID: "j-1", State: "done", Device: "garnet-20", Layout: []int{2, 7, 8},
			Counts: map[string]int{"0": 48, "388": 50, "4": 2}}
	}
	logical, err := CheckRecord(good(), 3, 100, qubits)
	if err != nil {
		t.Fatalf("a correct record was rejected: %v", err)
	}
	// 388 = bits 2,7,8 -> logical 0b111; 4 = bit 2 -> logical 0b001.
	if logical[0] != 48 || logical[7] != 50 || logical[1] != 2 {
		t.Errorf("marginal over layout [2 7 8] = %v", logical)
	}
	for name, tamper := range map[string]func(*Record){
		"a count changed so the sum misses the shots": func(r *Record) { r.Counts["388"] = 49 },
		"an outcome outside the register":             func(r *Record) { r.Counts["1048576"] = 0 },
		"a key that is not a number":                  func(r *Record) { r.Counts["0x1"] = 0 },
		"a negative count":                            func(r *Record) { r.Counts["0"], r.Counts["8"] = -2, 50 },
		"a job that failed":                           func(r *Record) { r.State = "failed" },
		"a device the daemon never listed":            func(r *Record) { r.Device = "ghost" },
		"a layout that misses a qubit":                func(r *Record) { r.Layout = r.Layout[:2] },
		"a layout outside the device":                 func(r *Record) { r.Layout[0] = 20 },
	} {
		r := good()
		tamper(r)
		if _, err := CheckRecord(r, 3, 100, qubits); err == nil {
			t.Errorf("the checker accepted %s", name)
		}
	}

	if err := CheckReplay("j-7", "j-7", "true"); err != nil {
		t.Errorf("a correct replay was rejected: %v", err)
	}
	if err := CheckReplay("j-7", "j-8", "true"); err == nil {
		t.Error("the checker accepted a replay that returned a different job id")
	}
	if err := CheckReplay("j-7", "j-7", ""); err == nil {
		t.Error("the checker accepted a replay without Idempotency-Replayed")
	}
	if CountsDigest(map[string]int{"1": 2, "0": 3}) != CountsDigest(map[string]int{"0": 3, "1": 2}) ||
		CountsDigest(map[string]int{"0": 3}) == CountsDigest(map[string]int{"0": 4}) {
		t.Error("CountsDigest must be canonical and sensitive to a count")
	}
}

func TestVerdictAppliesTheWorkloadBounds(t *testing.T) {
	burst := WorkloadByName("sweep-burst")
	in := Generate(burst, 1, 1)[0]
	all := 1<<in.NumQubits - 1
	ok, bad := NewTally(), NewTally()
	ok.Add(&in, 0, map[int]int{0: 45, all: 45, 1: 10})
	bad.Add(&in, 0, map[int]int{0: 10, all: 10, 1: 80})
	if stat, err := ok.Verdict(burst); err != nil || math.Abs(stat-0.9) > 1e-12 {
		t.Errorf("GHZ population 0.9: stat %g err %v", stat, err)
	}
	if _, err := bad.Verdict(burst); err == nil {
		t.Error("a GHZ population of 0.2 passed the floor")
	}

	loop := WorkloadByName("hybrid-loop")
	in = Generate(loop, 1, 1)[0]
	p, err := Ideal(in.Circ)
	if err != nil {
		t.Fatal(err)
	}
	exact, wrong := map[int]int{}, map[int]int{}
	worst := 0
	for i, pi := range p {
		exact[i] = int(math.Round(pi * 1e6))
		if pi < p[worst] {
			worst = i
		}
	}
	wrong[worst] = 100 // every shot on the least likely outcome
	ok, bad = NewTally(), NewTally()
	ok.Add(&in, 0, exact)
	bad.Add(&in, 0, wrong)
	if stat, err := ok.Verdict(loop); err != nil || stat > 1e-3 {
		t.Errorf("the ideal distribution itself: stat %g err %v", stat, err)
	}
	if _, err := bad.Verdict(loop); err == nil {
		t.Error("a distribution far from ideal passed the TVD bound")
	}
	if _, err := NewTally().Verdict(loop); err == nil {
		t.Error("a run that checked no distribution must not pass")
	}
}

func TestParseScrape(t *testing.T) {
	s := ParseScrape([]byte(`# HELP qhpc_x_total Things.
# TYPE qhpc_x_total counter
qhpc_x_total{device="garnet-20"} 3
qhpc_x_total{device="sibling-01-4x4"} 4
qhpc_y_total 2.5
qhpc_h_bucket{device="garnet-20",le="+Inf"} 9
`))
	if got := s.Sum("qhpc_x_total"); got != 7 {
		t.Errorf("Sum over devices = %g, want 7", got)
	}
	if got := s.Sum("qhpc_x_total", `device="garnet-20"`); got != 3 {
		t.Errorf("Sum with label = %g, want 3", got)
	}
	if got := s.Sum("qhpc_y_total"); got != 2.5 {
		t.Errorf("unlabelled = %g", got)
	}
	if got := s.Sum("qhpc_absent_total"); got != 0 {
		t.Errorf("absent family = %g, want 0", got)
	}
}
