package e2e

// CircuitKind selects the input generator of a workload.
type CircuitKind int

const (
	CircuitsAnsatz CircuitKind = iota // fresh-parameter 5q ansatz, every input unique
	CircuitsGHZ                       // GHZ(3..6), four circuits repeated
	CircuitsWide                      // eight 12q random circuits repeated
)

// Workload is one traffic mix. BENCHMARK.json records why each exists.
type Workload struct {
	Name     string
	Circuits CircuitKind
	Shots    int
	Users    int
	// Burst > 0 selects the async access mode: each caller POSTs Burst jobs
	// without waiting, then follows each job's event stream to its terminal
	// event. Burst == 0 is the long-poll mode, POST ?wait=30s per job.
	Burst int
	// Durable runs the daemon with -data-dir and group-commit WAL, and ends
	// with three kill -9 / restart cycles. Keyed sends a unique
	// Idempotency-Key on every submit and replays every tenth.
	Durable, Keyed bool
	// InputsPerSec caps how many inputs are generated per second of run, a
	// few times what the seed daemon sustains: a run that uses them all ends
	// early and says so.
	InputsPerSec int
	// TraceEvery is the cadence at which a traced run reads a job's
	// server-side span tree back: every 50th job where there are thousands,
	// every 4th of wide-circuit's hundred.
	TraceEvery int
	// Warmup is the untimed job count sent before measuring, part of set-up.
	Warmup int
	// TVDBound is the ceiling on the mean total-variation distance between
	// measured and ideal distributions, 2x the first value measured on the
	// seed (noisy device, so the distance is far from zero). GHZFloor is the
	// floor on the mean GHZ population P(0..0)+P(1..1).
	TVDBound float64
	GHZFloor float64
}

// ReplayEvery is the idempotent-replay cadence on keyed workloads: every
// tenth submit of a caller re-sends its previous key.
const ReplayEvery = 10

// Workloads is the frozen list; names and order match BENCHMARK.json.
var Workloads = []*Workload{
	{Name: "hybrid-loop", Circuits: CircuitsAnsatz, Shots: 100, Users: 4,
		InputsPerSec: 4000, TraceEvery: 50, Warmup: 800, TVDBound: 0.36},
	{Name: "sweep-burst", Circuits: CircuitsGHZ, Shots: 100, Users: 8, Burst: 64,
		TraceEvery: 50, Warmup: 1024, GHZFloor: 0.80},
	{Name: "durable-keyed", Circuits: CircuitsAnsatz, Shots: 100, Users: 4, Durable: true, Keyed: true,
		InputsPerSec: 4000, TraceEvery: 50, Warmup: 600, TVDBound: 0.36},
	{Name: "wide-circuit", Circuits: CircuitsWide, Shots: 50, Users: 4,
		TraceEvery: 4, Warmup: 12, TVDBound: 0.80},
}

// WorkloadByName returns the named workload, or nil.
func WorkloadByName(name string) *Workload {
	for _, w := range Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// DaemonFlags are the flags every run starts qhpcd with (plus -addr, and
// the -data-dir group on durable workloads): shipped defaults otherwise.
var DaemonFlags = []string{"-devices", "2", "-workers", "2", "-seed", "1"}

// DurableFlags follow -data-dir <dir> on durable workloads.
var DurableFlags = []string{"-wal-sync", "group", "-wal-compact-every", "0"}
