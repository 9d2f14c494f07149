// Command bench is qbench, the repository's benchmark: one closed-loop
// end-to-end measurement of the real qhpcd daemon over its v2 wire API, with
// a per-layer ladder beside it. BENCHMARK.json at the repository root names
// its workloads, metrics and regression bounds; README.md in this directory
// says what each metric means and which layer should move it.
//
// Run it from the repository root:
//
//	go run -C bench .                                   # every workload, tables
//	go run -C bench . --workload hybrid-loop --seed 7 --seconds 10 --trace 0
//
// With --workload it makes one run and prints one JSON object as the last
// line of standard output (the driver's contract). Without, it runs every
// workload -reps times, untraced and traced, then the ladder, and prints
// every metric by name with unit, direction and bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/bench/e2e"
)

func main() {
	workload := flag.String("workload", "", "run only this workload and print the result as one JSON line (default: all, as tables)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 0, "seconds measured per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 makes the traced run and prints the per-layer metrics")
	reps := flag.Int("reps", 1, "valid runs per workload; tables give median and quartiles (5 for a publishable table)")
	checkRepeat := flag.Bool("check-repeat", false, "make two sets of -reps runs and fail if an end-to-end median differs by more than its bound")
	smoke := flag.Bool("smoke", false, "2 s per workload, no bounds: does everything still run")
	verbose := flag.Bool("v", false, "with -workload: also print every metric of the run, diagnostics included, on standard error")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, options{*workload, *seed, *seconds, *trace, *reps, *checkRepeat, *smoke, *verbose}); err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	reps        int
	checkRepeat bool
	smoke       bool
	verbose     bool
}

// bench is what every mode shares.
type bench struct {
	root, benchDir, outDir string
	spec                   *Spec
	opt                    options
	prov                   *e2e.Provenance
	// rerunsLeft is shared by the runs of one driver invocation, so that its
	// worst case stays inside the driver's 180 s; the tables refill it for
	// every run.
	rerunsLeft int
}

func run(ctx context.Context, opt options) error {
	benchDir, err := os.Getwd()
	if err != nil {
		return err
	}
	root := filepath.Dir(benchDir)
	if _, err := os.Stat(filepath.Join(root, "cmd", "qhpcd")); err != nil {
		return fmt.Errorf("run from the repository with `go run -C bench .`: %s holds no cmd/qhpcd to build", root)
	}
	spec, err := LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if opt.smoke {
		opt.seconds = 2
	}
	if opt.seconds <= 0 {
		opt.seconds = spec.RunSeconds
	}
	b := &bench{root: root, benchDir: benchDir, outDir: filepath.Join(benchDir, "out"), spec: spec, opt: opt, rerunsLeft: MaxReruns}
	b.prov = e2e.Stamp(root, opt.seed, opt.seconds)
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	if opt.workload != "" {
		return b.driverRun(ctx)
	}
	return b.report(ctx)
}

// MaxReruns is how often one invocation makes a run again because it was
// not VALID.
const MaxReruns = 2

// validRun makes one run of seconds, again while its class is not VALID and
// the invocation has reruns left. Excluded runs are printed, never averaged
// in. With none left the tables fail; a driver invocation, which must print
// a result, reports the last INFRA_FLAKE run and says so.
func (b *bench) validRun(ctx context.Context, w *e2e.Workload, seed int64, seconds int, traced bool, setupReps int) (*e2e.Result, error) {
	for {
		res, err := e2e.Run(ctx, &e2e.Config{
			Root: b.root, OutDir: b.outDir, Workload: w, Seed: seed, Seconds: seconds,
			Traced: traced, SetupReps: setupReps,
		})
		if err != nil {
			return nil, err
		}
		if res.Class == e2e.ClassValid {
			return res, nil
		}
		fmt.Fprintf(os.Stderr, "qbench: %s run excluded as %s: %s\n", w.Name, res.Class, res.Reason)
		if b.rerunsLeft == 0 && b.opt.workload != "" && res.Class == e2e.ClassInfraFlake {
			fmt.Fprintf(os.Stderr, "qbench: %s: no rerun left: REPORTING THE %s RUN ABOVE\n", w.Name, res.Class)
			return res, nil
		}
		if b.rerunsLeft == 0 {
			return nil, fmt.Errorf("%s: no VALID run and no rerun left, last was %s: %s", w.Name, res.Class, res.Reason)
		}
		b.rerunsLeft--
	}
}

// setupRepsPerRun: set up this often in a run that reports setup_s, which is
// their median — the first set-up of a checkout compiles, the rest do not.
const setupRepsPerRun = 3

// driverRun is the contract with the driver: one workload, one JSON line.
func (b *bench) driverRun(ctx context.Context) error {
	w := e2e.WorkloadByName(b.opt.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", b.opt.workload)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}

	if b.opt.trace == 0 {
		res, err := b.validRun(ctx, w, b.opt.seed, b.opt.seconds, false, setupRepsPerRun)
		if err != nil {
			return err
		}
		b.printNotes(w, res)
		out.Correct, out.Attempted, out.Failed = res.Correct, res.Attempted, res.Failed
		for _, m := range b.spec.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s: run produced no %s", w.Name, m.Name)
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		// The two runs behind the per-layer rows share the seconds asked for.
		layers, res, err := b.tracedRun(ctx, w, b.opt.seed, (b.opt.seconds+1)/2, nil)
		if err != nil {
			return err
		}
		b.printNotes(w, res)
		out.Correct, out.Attempted, out.Failed = res.Correct, res.Attempted, res.Failed
		for _, m := range b.spec.PerLayer {
			v, ok := layers[m.Name]
			if !ok {
				v = MissingMetric
				fmt.Fprintf(os.Stderr, "qbench: %s: %s is missing (its probe failed); reported as %g\n", w.Name, m.Name, MissingMetric)
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// MissingMetric stands for a per-layer metric whose probe failed: the
// end-to-end run never fails for it.
const MissingMetric = -1.0

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) printNotes(w *e2e.Workload, res *e2e.Result) {
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "qbench: %s: %s\n", w.Name, n)
	}
	if b.opt.verbose {
		all, _ := json.Marshal(res.Metrics) // a map of floats always encodes
		fmt.Fprintf(os.Stderr, "qbench: %s: %s\n", w.Name, all)
	}
}

// tracedRun is the per-layer half: a traced run of the workload of seconds,
// compared with an untraced one for the tracing overhead (plain, or a fresh
// run of the same length when plain is nil), then the ladder. It returns every per-layer metric it could
// measure and the traced run.
func (b *bench) tracedRun(ctx context.Context, w *e2e.Workload, seed int64, seconds int, plain *e2e.Result) (map[string]float64, *e2e.Result, error) {
	var err error
	if plain == nil {
		if plain, err = b.validRun(ctx, w, seed, seconds, false, 1); err != nil {
			return nil, nil, err
		}
	}
	traced, err := b.validRun(ctx, w, seed, seconds, true, 1)
	if err != nil {
		return nil, nil, err
	}
	layers := map[string]float64{}
	for name, v := range traced.Metrics {
		layers[name] = v
	}
	layers["client.traced_ratio"] = traced.Metrics["jobs_per_s"] / plain.Metrics["jobs_per_s"]

	tf := &e2e.TraceFile{Workload: w.Name, Seed: seed, Provenance: b.prov, Spans: traced.Load.Spans}
	if err := e2e.WriteJSON(filepath.Join(b.outDir, "trace-"+w.Name+".json"), tf); err != nil {
		return nil, nil, err
	}

	ladder, err := b.runLadder(ctx, w, seed)
	if err != nil {
		// A ladder that does not build or run costs its rows, nothing else.
		fmt.Fprintf(os.Stderr, "qbench: %s: ladder: %v\n", w.Name, err)
	}
	for name, v := range ladder {
		layers[name] = v
	}
	reconcile(w, layers)
	return layers, traced, nil
}

// reconcile fills the rows that join the client's view to the ladder's. The
// ladder's self times telescope to its top rung (the submit handler, keyed
// on a keyed workload), so what the client sees beyond that rung is what no
// rung accounts for: the network, the client, and concurrency.
func reconcile(w *e2e.Workload, m map[string]float64) {
	top := "mqss.submit_handler_us_p50"
	if w.Keyed {
		top = "mqss.submit_handler_keyed_us_p50"
	}
	handlerUs, ok := m[top]
	if !ok {
		return
	}
	m["client.unattributed_ms"] = m["job_ms_p50"] - handlerUs/1000
	m["mqss.http_overhead_ms_p50"] = m["client.post_ms_p50"] - handlerUs/1000
}
