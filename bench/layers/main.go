// Command layers is the ladder half of qbench: the inputs of one workload,
// generated from the same seed as the end-to-end run, replayed
// single-threaded through each layer's public entry point. Every call is
// wrapped in a bench-owned span (name, start, end, parent; one trace per
// input), so a layer's self time is its span minus the spans of the rung
// below it.
//
// It is a separate program on purpose. The end-to-end harness builds and
// runs it, and reports its rows as missing when it does not build or a probe
// fails: a refactor that moves an internal entry point costs the ladder rows
// it fed, never the end-to-end numbers. Each probe lives in its own file and
// registers itself, so deleting a file deletes its rows and nothing else.
//
// Probes may import only the entry points ROADMAP item 2 keeps:
// circuit.Compile, quantum.Program.RunOn / State.SampleBitstringsInto,
// transpile.Transpile, device.New / QPU.ExecuteCtx, qdmi.NewDevice,
// fleet.New / AddDevice / Submit / WaitContext / AttachStore / Stop,
// durable.Open / JournalFleetJob / WaitDurable / Compact / Stats,
// tenant.NewLimiter / Allow, mqss.NewFleetServer / ServeHTTP.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/e2e"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/transpile"
)

// probe is one rung (or side measurement) of the ladder.
type probe struct {
	name string
	run  func(*env) error
}

var probes []probe

func register(name string, run func(*env) error) { probes = append(probes, probe{name, run}) }

// job is one decoded input: the circuit in the daemon's own IR, decoded
// from the very bytes the end-to-end run POSTs.
type job struct {
	Circuit *circuit.Circuit `json:"circuit"`
	Shots   int              `json:"shots"`
	User    string           `json:"user"`
	body    []byte
}

// env is what probes share.
type env struct {
	w       *e2e.Workload
	jobs    []job // what every rung replays
	fresh   []job // as many again, never seen by a rung: a second pass that must not hit a cache takes these
	dataDir string
	metrics map[string]float64
	spans   []e2e.Span
	epoch   time.Time

	target  *transpile.Target  // the primary's, built on first use by native
	natives []*circuit.Circuit // jobs[i] lowered to the primary's native gates
}

// Span names are layer names, so <name>.self_us_p50 reads as the layer's
// self time. The nesting below is the blocking path of one job.
const (
	spanMQSS      = "mqss"      // POST handler, in process
	spanFleet     = "fleet"     // Submit -> terminal; holds qrm's claim and dispatch
	spanTranspile = "transpile" // child of fleet
	spanDevice    = "device"    // child of fleet
	spanCircuit   = "circuit"   // child of device
	spanQuantum   = "quantum"   // child of device
)

// transpileOptions are the dispatch worker's: fidelity-aware placement (the
// zero value is static placement, which routes a 12-qubit line across grid
// rows and triples the CZ count).
var transpileOptions = transpile.Options{Placement: transpile.PlaceFidelityAware}

// native returns jobs[i] transpiled for the primary device, untimed: the
// rungs below the transpiler need its output whether or not its own probe
// is present.
func (e *env) native(i int) (*circuit.Circuit, error) {
	if e.natives == nil {
		_, dev, err := newPrimary()
		if err != nil {
			return nil, err
		}
		e.target, e.natives = dev.Target(), make([]*circuit.Circuit, len(e.jobs))
	}
	if e.natives[i] == nil {
		res, err := transpile.Transpile(e.jobs[i].Circuit, e.target, transpileOptions)
		if err != nil {
			return nil, err
		}
		e.natives[i] = res.Circuit
	}
	return e.natives[i], nil
}

// timed runs f inside a span of trace i and returns its duration.
func (e *env) timed(i int, name, parent string, f func() error) (time.Duration, error) {
	start := time.Since(e.epoch)
	err := f()
	end := time.Since(e.epoch)
	e.spans = append(e.spans, e2e.Span{Trace: fmt.Sprintf("in-%d", i), Name: name, Parent: parent,
		StartUs: float64(start) / 1e3, EndUs: float64(end) / 1e3})
	return end - start, err
}

// p50us is the median of durations in microseconds.
func p50us(d []time.Duration) float64 {
	us := make([]float64, len(d))
	for i, v := range d {
		us[i] = float64(v) / 1e3
	}
	return e2e.Median(us)
}

// newFleet builds a two-device fleet the way `qhpcd -devices 2 -workers 2
// -seed 1` does: the 4x5 primary and the first 4x4 sibling, best-fidelity
// routing. (The daemon also ages the sibling's calibration by six hours;
// that call is not an entry point this ladder may use, and best-fidelity
// routing sends every job of these workloads to the primary either way.)
func newFleet() (*fleet.Scheduler, error) {
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	for _, cfg := range []device.Config{
		{Name: "garnet-20", Rows: 4, Cols: 5, Seed: 1},
		{Name: "sibling-01-4x4", Rows: 4, Cols: 4, Seed: 101},
	} {
		qpu, err := device.New(cfg)
		if err != nil {
			f.Stop()
			return nil, err
		}
		if err := f.AddDevice(cfg.Name, qdmi.NewDevice(qpu, nil), 2); err != nil {
			f.Stop()
			return nil, err
		}
	}
	return f, nil
}

// newPrimary builds the primary device alone, for the rungs below the fleet.
func newPrimary() (*device.QPU, *qdmi.Device, error) {
	qpu, err := device.New(device.Config{Name: "garnet-20", Rows: 4, Cols: 5, Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	return qpu, qdmi.NewDevice(qpu, nil), nil
}

// workloadFleet builds the fleet the workload's daemon runs: on a durable
// workload with a group-commit store under the scratch directory attached,
// so Submit acknowledges only what is journaled.
func (e *env) workloadFleet(sub string) (*fleet.Scheduler, *durable.Store, error) {
	f, err := newFleet()
	if err != nil || !e.w.Durable {
		return f, nil, err
	}
	if e.dataDir == "" {
		f.Stop()
		return nil, nil, fmt.Errorf("durable workload needs -data-dir")
	}
	store, _, err := durable.Open(filepath.Join(e.dataDir, sub), durable.Options{Sync: durable.SyncGroup})
	if err != nil {
		f.Stop()
		return nil, nil, err
	}
	f.AttachStore(store)
	return f, store, nil
}

// ladderInputs is how many inputs each rung replays: enough for a median,
// few enough that twelve-qubit jobs at ~50 ms each stay within seconds.
func ladderInputs(w *e2e.Workload) int {
	if w.Circuits == e2e.CircuitsWide {
		return 16
	}
	return 200
}

// selfTimes derives each rung's self time from the spans: per trace, a
// span's duration minus its children's, floored at zero (a parent that
// skipped a child's work through a cache shows as zero, not negative); the
// median over traces is reported as <span name>.self_us_p50.
func (e *env) selfTimes() {
	type key struct{ trace, name string }
	dur := map[key]float64{}
	child := map[key]float64{}
	for _, s := range e.spans {
		dur[key{s.Trace, s.Name}] += s.EndUs - s.StartUs
		if s.Parent != "" {
			child[key{s.Trace, s.Parent}] += s.EndUs - s.StartUs
		}
	}
	self := map[string][]float64{}
	for k, d := range dur {
		v := d - child[k]
		if v < 0 {
			v = 0
		}
		self[k.name] = append(self[k.name], v)
	}
	for name, v := range self {
		sort.Float64s(v)
		e.metrics[name+".self_us_p50"] = e2e.Percentile(v, 50)
	}
}

func main() {
	workload := flag.String("workload", "", "workload whose inputs to replay")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	out := flag.String("out", "", "write the metrics (JSON object) here")
	spansOut := flag.String("spans", "", "write the spans (JSON) here")
	dataDir := flag.String("data-dir", "", "scratch directory for the durable probes")
	flag.Parse()
	w := e2e.WorkloadByName(*workload)
	if w == nil || *out == "" {
		fmt.Fprintln(os.Stderr, "layers: -workload <name> and -out <file> are required")
		os.Exit(2)
	}
	e := &env{w: w, dataDir: *dataDir, metrics: map[string]float64{}, epoch: time.Now()}
	n := ladderInputs(w)
	for i, in := range e2e.Generate(w, *seed, 2*n) {
		j := job{body: in.Body}
		if err := json.Unmarshal(in.Body, &j); err != nil {
			// The generator and the daemon's IR disagree: a harness bug.
			fmt.Fprintf(os.Stderr, "layers: decoding a generated body: %v\n", err)
			os.Exit(2)
		}
		if i < n {
			e.jobs = append(e.jobs, j)
		} else {
			e.fresh = append(e.fresh, j)
		}
	}
	failed := 0
	for _, p := range probes {
		if err := p.run(e); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "layers: probe %s: %v (its rows are missing)\n", p.name, err)
		}
	}
	e.selfTimes()
	if err := e2e.WriteJSON(*out, e.metrics); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if *spansOut != "" {
		if err := e2e.WriteJSON(*spansOut, e.spans); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "layers: %s: %d probes, %d failed, %d rows\n", w.Name, len(probes), failed, len(e.metrics))
}
