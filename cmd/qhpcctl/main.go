// Command qhpcctl is the operator/user CLI for a running qhpcd: it submits
// OpenQASM circuits, inspects jobs and device state, and pages through job
// history — the dashboard operations §4's early users relied on.
//
// Usage:
//
//	qhpcctl -server http://localhost:8080 device
//	qhpcctl -server http://localhost:8080 submit -shots 500 -user alice circuit.qasm
//	qhpcctl -server http://localhost:8080 job 17
//	qhpcctl -server http://localhost:8080 job submit -shots 500 -wait circuit.qasm
//	qhpcctl -server http://localhost:8080 job watch j-17
//	qhpcctl -server http://localhost:8080 job cancel j-17
//	qhpcctl -server http://localhost:8080 history -user alice -offset 0 -limit 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qrm"
	"repro/internal/quantum"
	"repro/internal/scenario"
	"repro/internal/telemetry/trace"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "qhpcd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	ctx := context.Background()
	client := mqss.NewRemoteClient(*server, nil)
	switch args[0] {
	case "device":
		var info *mqss.DeviceInfo
		var err error
		if len(args) > 1 {
			info, err = client.FleetDevice(ctx, args[1])
		} else {
			// The sole backend; a larger roster errors naming its devices.
			info, err = client.Device(ctx)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device: %s (%d qubits, twin=%v)\n", info.Properties.Name,
			info.Properties.NumQubits, info.Properties.DigitalTwin)
		fmt.Printf("fidelities: 1q %.4f, readout %.4f, cz %.4f (calibration age %.1f h)\n",
			info.Fidelity1Q, info.FidelityReadout, info.FidelityCZ, info.CalibrationAgeH)
		fmt.Println("coupling map:")
		for q := 0; q < info.Properties.NumQubits; q++ {
			fmt.Printf("  q%-2d -> %v\n", q, info.Properties.CouplingMap[q])
		}
		if info.Calibration != nil && len(info.Calibration.Couplers) > 0 {
			fmt.Println("coupler CZ fidelities:")
			edges := make([][2]int, 0, len(info.Calibration.Couplers))
			for e := range info.Calibration.Couplers {
				edges = append(edges, e)
			}
			sort.Slice(edges, func(i, j int) bool {
				if edges[i][0] != edges[j][0] {
					return edges[i][0] < edges[j][0]
				}
				return edges[i][1] < edges[j][1]
			})
			for _, e := range edges {
				fmt.Printf("  q%d-q%d: %.4f\n", e[0], e[1], info.Calibration.FCZ(e[0], e[1]))
			}
		}
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		shots := fs.Int("shots", 1000, "shots")
		user := fs.String("user", "cli", "submitting user")
		static := fs.Bool("static", false, "static placement instead of fidelity-aware JIT")
		device := fs.String("device", "", "pin the job to one backend")
		policy := fs.String("policy", "", "routing policy override")
		if err := fs.Parse(args[1:]); err != nil {
			log.Fatal(err)
		}
		if fs.NArg() != 1 {
			log.Fatal("submit needs exactly one .qasm file")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		c, err := circuit.ParseQASM(f)
		f.Close()
		if err != nil {
			log.Fatalf("parsing %s: %v", fs.Arg(0), err)
		}
		req := qrm.Request{Circuit: c, Shots: *shots, User: *user, StaticPlacement: *static}
		if *device != "" || *policy != "" {
			fj, err := client.RunRouted(ctx, req, mqss.RouteOptions{Device: *device, Policy: *policy})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("routed to %s (score %.4f, %d migrations)\n", fj.Device, fj.Score, fj.Migrations)
			if fj.Result != nil {
				res := *fj.Result
				res.ID = fj.ID
				printJob(&res)
			} else {
				fmt.Printf("job #%d: %s %s\n", fj.ID, fj.Status, fj.Error)
			}
			break
		}
		job, err := client.Run(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		printJob(job)
	case "job":
		if len(args) < 2 {
			log.Fatal("job needs a subcommand (submit/status/watch/cancel) or an ID")
		}
		// Back-compat: `qhpcctl job 17` still fetches the legacy record.
		if id, err := strconv.Atoi(args[1]); err == nil {
			job, err := client.Job(ctx, id)
			if err != nil {
				log.Fatal(err)
			}
			printJob(job)
			break
		}
		jobCommand(ctx, client, args[1:])
	case "history":
		fs := flag.NewFlagSet("history", flag.ExitOnError)
		user := fs.String("user", "", "filter by user")
		offset := fs.Int("offset", 0, "page offset")
		limit := fs.Int("limit", 10, "page size")
		if err := fs.Parse(args[1:]); err != nil {
			log.Fatal(err)
		}
		page, err := client.History(ctx, *user, *offset, *limit)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("jobs %d-%d of %d (has more: %v)\n",
			page.Offset+1, page.Offset+len(page.Jobs), page.Total, page.HasMore)
		for _, j := range page.Jobs {
			fmt.Printf("  #%-4d %-12s user=%-10s circuit=%q shots=%d\n",
				j.ID, j.Status, j.Request.User, j.Request.Circuit.Name, j.Request.Shots)
		}
	case "fleet":
		sub := "status"
		if len(args) > 1 {
			sub = args[1]
		}
		if sub != "status" {
			log.Fatalf("unknown fleet subcommand %q (want: status)", sub)
		}
		m, err := client.FleetMetrics(ctx)
		if err != nil {
			log.Fatal(err)
		}
		printFleetStatus(m)
	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		clients := fs.Int("clients", 8, "concurrent clients")
		jobs := fs.Int("jobs", 10, "jobs per client")
		shots := fs.Int("shots", 100, "shots per job")
		qubits := fs.Int("qubits", 4, "GHZ circuit size")
		batch := fs.Bool("batch", false, "submit each client's jobs as one streamed batch")
		device := fs.String("device", "", "pin all jobs to one device")
		policy := fs.String("policy", "", "routing policy override")
		simMode := fs.Bool("sim", false, "run the in-process execution-engine bench (no server; compares naive vs compiled shot loop)")
		jsonOut := fs.String("json", "", "write machine-readable bench results to this file")
		if err := fs.Parse(args[1:]); err != nil {
			log.Fatal(err)
		}
		if *simMode {
			// -sim runs in process against a local device pair: the
			// server-load controls don't apply, and silently ignoring them
			// would misreport what was measured.
			set := map[string]bool{}
			fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
			for _, name := range []string{"clients", "batch", "device", "policy"} {
				if set[name] {
					log.Fatalf("bench -sim is in-process; -%s does not apply (supported: -jobs, -shots, -qubits, -json)", name)
				}
			}
			// Zero values keep the harness defaults (the BENCH_sim.json
			// artifact configuration), so a bare `bench -sim` reproduces the
			// tracked workload; the bench subcommand's own flag defaults
			// must not override it.
			p := simBenchParams{jsonOut: *jsonOut}
			if set["jobs"] {
				p.jobs = *jobs
			}
			if set["shots"] {
				p.shots = *shots
			}
			if set["qubits"] {
				p.qubits = *qubits
			}
			runSimBench(p)
			break
		}
		runBench(*server, benchConfig{
			clients: *clients, jobs: *jobs, shots: *shots, qubits: *qubits,
			batch: *batch, device: *device, policy: *policy,
			jsonOut: *jsonOut,
		})
	case "trace":
		jt, err := client.V2JobTrace(ctx, v2ID(args[1:]))
		if err != nil {
			log.Fatal(err)
		}
		printTrace(jt)
	case "scenarios":
		scenariosCommand(args[1:])
	case "store":
		storeCommand(ctx, client, args[1:])
	case "tenants":
		tenantsCommand(ctx, client, args[1:])
	case "federation":
		federationCommand(ctx, client, args[1:])
	default:
		usage()
	}
}

// printTrace renders the span tree as an indented waterfall: one line per
// span with its start offset, duration, share of the root's wall time, and
// attributes (docs/OBSERVABILITY.md explains how to read it).
func printTrace(jt *mqss.JobTrace) {
	state := fmt.Sprintf("%.3f ms total", jt.DurationUs/1000)
	if !jt.Complete {
		state += " (in flight)"
	}
	if jt.DroppedSpans > 0 {
		state += fmt.Sprintf(", %d spans dropped", jt.DroppedSpans)
	}
	fmt.Printf("trace %s [%s]: %s\n", jt.JobID, jt.State, state)
	if jt.Root == nil {
		return
	}
	total := jt.Root.DurationUs
	var walk func(sp *trace.SpanSnapshot, depth int)
	walk = func(sp *trace.SpanSnapshot, depth int) {
		pct := 0.0
		if total > 0 {
			pct = 100 * sp.DurationUs / total
		}
		name := sp.Name
		if sp.InProgress {
			name += " (in progress)"
		}
		fmt.Printf("  %-32s @%9.3f ms %10.3f ms %6.1f%%%s\n",
			strings.Repeat("  ", depth)+name,
			sp.StartUs/1000, sp.DurationUs/1000, pct, attrSuffix(sp.Attrs))
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(jt.Root, 0)
}

// attrSuffix renders span attributes deterministically (sorted keys).
func attrSuffix(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return "  {" + strings.TrimSpace(b.String()) + "}"
}

// scenariosCommand is the fault-scenario lab front-end: `scenarios list`
// shows the registry, `scenarios run` executes it in process (no daemon —
// each scenario boots its own fleet behind a real HTTP server) and applies
// the release gates exactly as the CI scenario-lab job does.
func scenariosCommand(args []string) {
	sub := "list"
	if len(args) > 0 {
		sub = args[0]
		args = args[1:]
	}
	switch sub {
	case "list":
		for _, s := range scenario.All() {
			fmt.Printf("  %-24s seed=%-4d %s\n", s.Name, s.Seed, s.Description)
		}
	case "run":
		fs := flag.NewFlagSet("scenarios run", flag.ExitOnError)
		name := fs.String("name", "", "run only the named scenario (default: all)")
		runs := fs.Int("runs", 3, "reruns per scenario (gates compare medians)")
		jsonOut := fs.String("json", "", "write the BENCH_scenarios.json artifact to this file")
		negative := fs.Bool("negative-control", false,
			"withhold every React hook so faults go unhandled; gates must trip")
		if err := fs.Parse(args); err != nil {
			log.Fatal(err)
		}
		r := &scenario.Runner{Runs: *runs, SkipReact: *negative, Logf: func(format string, a ...interface{}) {
			fmt.Printf(format+"\n", a...)
		}}
		art, err := r.RunAll(*name)
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range art.Scenarios {
			fmt.Printf("%s: pass=%v (recovery %.2fx, warmup spread %.1f%%)\n",
				res.Name, res.Pass, res.RecoveryRatio, res.WarmupSpreadPct)
			for _, g := range res.Gates {
				mark := "PASS"
				if !g.Pass {
					mark = "FAIL"
				}
				fmt.Printf("  [%s] %-20s %s\n", mark, g.Name, g.Detail)
			}
		}
		if *jsonOut != "" {
			if err := art.WriteFile(*jsonOut); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *negative {
			if art.Pass {
				log.Fatal("negative control failed: no gate tripped with React hooks withheld")
			}
			fmt.Println("negative control OK: gates tripped with React hooks withheld")
			return
		}
		if !art.Pass {
			os.Exit(1)
		}
	default:
		log.Fatalf("unknown scenarios subcommand %q (want: list, run)", sub)
	}
}

// storeCommand inspects the daemon's crash-durable job store:
// `store status` reads GET /api/v2/admin/store (docs/DURABILITY.md).
func storeCommand(ctx context.Context, client *mqss.Client, args []string) {
	sub := "status"
	if len(args) > 0 {
		sub = args[0]
	}
	if sub != "status" {
		log.Fatalf("unknown store subcommand %q (want: status)", sub)
	}
	st, err := client.StoreStatus(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if !st.Attached {
		fmt.Println("durable store: not attached (daemon running without -data-dir)")
		return
	}
	fmt.Printf("durable store: %s (wal-sync=%s)\n", st.Dir, st.SyncMode)
	fmt.Printf("wal: lsn %d (durable %d), %d appends, %d fsyncs, %s written\n",
		st.LastLSN, st.DurableLSN, st.Appends, st.Fsyncs, humanBytes(st.Bytes))
	fmt.Printf("disk: %d journal segments, %s total\n", st.Segments, humanBytes(uint64(st.WALBytes)))
	last := "never"
	if st.LastCompaction != "" {
		last = st.LastCompaction
	}
	fmt.Printf("compaction: %d runs, snapshot lsn %d, last %s\n",
		st.Compactions, st.SnapshotLSN, last)
	if st.Replay != nil {
		fmt.Printf("startup replay: %d records from %d segments (snapshot lsn %d) in %.1f ms",
			st.Replay.Records, st.Replay.Segments, st.Replay.SnapshotLSN, st.Replay.DurationMs)
		if st.Replay.SkippedBytes > 0 {
			fmt.Printf("; torn tail: %d bytes skipped", st.Replay.SkippedBytes)
		}
		fmt.Println()
	}
	if st.Restored != nil {
		fmt.Printf("recovered jobs: %d terminal, %d re-queued, %d expired\n",
			st.Restored.Terminal, st.Restored.Requeued, st.Restored.Expired)
	}
}

// tenantsCommand shows the multi-tenant admission plane:
// `tenants status` reads GET /api/v2/admin/tenants — the configured limits
// plus one usage row per tenant (queue depth, outcome counters, throttles).
func tenantsCommand(ctx context.Context, client *mqss.Client, args []string) {
	sub := "status"
	if len(args) > 0 {
		sub = args[0]
	}
	if sub != "status" {
		log.Fatalf("unknown tenants subcommand %q (want: status)", sub)
	}
	ts, err := client.TenantsStatus(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if ts.Limiter != nil {
		fmt.Printf("rate limit: %.3g jobs/s per tenant (burst %d); refusals are 429 + Retry-After\n",
			ts.Limiter.Rate, ts.Limiter.Burst)
	} else {
		fmt.Println("rate limit: off")
	}
	if ts.Admission != nil && ts.Admission.Enabled() {
		fmt.Printf("queue bounds: per-tenant %d, high-water %d (0 = unbounded); overflow is shed\n",
			ts.Admission.MaxTenantQueue, ts.Admission.HighWater)
	} else {
		fmt.Println("queue bounds: off")
	}
	if len(ts.Tenants) == 0 {
		fmt.Println("no tenant activity yet")
		return
	}
	fmt.Printf("%-20s %6s %9s %9s %6s %9s %6s %9s %9s\n",
		"TENANT", "QUEUED", "SUBMITTED", "COMPLETED", "FAILED", "CANCELLED", "SHED", "ALLOWED", "THROTTLED")
	for _, row := range ts.Tenants {
		fmt.Printf("%-20s %6d %9d %9d %6d %9d %6d %9d %9d\n",
			row.User, row.Queued, row.Submitted, row.Completed, row.Failed,
			row.Cancelled, row.Shed, row.Allowed, row.Throttled)
	}
}

// federationCommand shows the sharded-fleet membership: `federation
// status` reads GET /api/v2/federation/status — which peers this node
// knows, who is alive, and each member's job-ID range base
// (docs/FEDERATION.md).
func federationCommand(ctx context.Context, client *mqss.Client, args []string) {
	sub := "status"
	if len(args) > 0 {
		sub = args[0]
	}
	if sub != "status" {
		log.Fatalf("unknown federation subcommand %q (want: status)", sub)
	}
	st, err := client.FederationStatus(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: %d nodes, %d alive (answering node: %s)\n", st.Nodes, st.Alive, st.NodeID)
	fmt.Printf("%-12s %-28s %10s %6s %s\n", "NODE", "URL", "ID-BASE", "ALIVE", "LAST-SEEN")
	for _, p := range st.Peers {
		alive := "no"
		if p.Alive {
			alive = "yes"
		}
		seen := "never"
		switch {
		case p.Self:
			seen = "(self)"
		case p.LastSeen >= 0:
			// last_seen_ms is already relative: ms since last contact.
			seen = fmt.Sprintf("%.1fs ago", float64(p.LastSeen)/1000)
		}
		fmt.Printf("%-12s %-28s %10d %6s %s\n", p.ID, p.URL, p.IDBase, alive, seen)
	}
}

// humanBytes renders a byte count with a binary-prefix unit.
func humanBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// jobCommand is the v2 async job group: submit returns immediately with a
// handle (or -wait blocks), status/watch/cancel operate on the opaque ID.
func jobCommand(ctx context.Context, client *mqss.Client, args []string) {
	switch args[0] {
	case "submit":
		fs := flag.NewFlagSet("job submit", flag.ExitOnError)
		shots := fs.Int("shots", 1000, "shots")
		user := fs.String("user", "cli", "submitting user")
		priority := fs.Int("priority", 0, "queue priority (higher dispatches first)")
		deadline := fs.Float64("deadline-ms", 0, "dispatch deadline in ms from submission (0 = none)")
		static := fs.Bool("static", false, "static placement instead of fidelity-aware JIT")
		device := fs.String("device", "", "pin the job to one backend")
		policy := fs.String("policy", "", "routing policy override")
		idemKey := fs.String("idempotency-key", "", "replay-safe submission key")
		wait := fs.Bool("wait", false, "block until the job is terminal and print the result")
		if err := fs.Parse(args[1:]); err != nil {
			log.Fatal(err)
		}
		if fs.NArg() != 1 {
			log.Fatal("job submit needs exactly one .qasm file")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		c, err := circuit.ParseQASM(f)
		f.Close()
		if err != nil {
			log.Fatalf("parsing %s: %v", fs.Arg(0), err)
		}
		h, err := client.Submit(ctx, mqss.SubmitRequest{
			Circuit: c, Shots: *shots, User: *user,
			Priority: *priority, DeadlineMs: *deadline,
			StaticPlacement: *static, Device: *device, Policy: *policy,
		}, *idemKey)
		if err != nil {
			log.Fatal(err)
		}
		if !*wait {
			fmt.Printf("accepted: job %s (poll with `qhpcctl job status %s`, stream with `qhpcctl job watch %s`)\n",
				h.ID, h.ID, h.ID)
			return
		}
		job, err := h.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		printV2Job(job)
	case "status":
		job, err := client.V2Job(ctx, v2ID(args[1:]))
		if err != nil {
			log.Fatal(err)
		}
		printV2Job(job)
	case "watch":
		h, err := client.Handle(v2ID(args[1:]))
		if err != nil {
			log.Fatal(err)
		}
		job, err := h.Watch(ctx, func(ev mqss.JobEvent) {
			fmt.Printf("  event %-4d %-10s device=%-22s %s\n", ev.Seq, ev.State, ev.Device, ev.Reason)
		})
		if err != nil {
			log.Fatal(err)
		}
		printV2Job(job)
	case "cancel":
		h, err := client.Handle(v2ID(args[1:]))
		if err != nil {
			log.Fatal(err)
		}
		if err := h.Cancel(ctx); err != nil {
			log.Fatal(err)
		}
		job, err := h.Poll(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cancel requested: job %s now %s\n", job.ID, job.State)
	default:
		log.Fatalf("unknown job subcommand %q (want: submit, status, watch, cancel)", args[0])
	}
}

// v2ID reads the ID argument, accepting both the opaque form ("j-17") and
// a bare number.
func v2ID(args []string) string {
	if len(args) != 1 {
		log.Fatal("need exactly one job ID")
	}
	if n, err := strconv.Atoi(args[0]); err == nil {
		return mqss.FormatJobID(n)
	}
	return args[0]
}

// printV2Job renders the unified v2 record.
func printV2Job(j *mqss.Job) {
	fmt.Printf("job %s: %s", j.ID, j.State)
	if j.Device != "" {
		fmt.Printf(" on %s", j.Device)
	}
	if j.Migrations > 0 {
		fmt.Printf(" (%d migrations)", j.Migrations)
	}
	fmt.Println()
	if j.Error != nil {
		fmt.Printf("  error: [%s] %s (retryable: %v)\n", j.Error.Code, j.Error.Message, j.Error.Retryable)
		return
	}
	if j.State != mqss.StateDone {
		return
	}
	fmt.Printf("  compiled: %d gates (%d CZ) — %s\n", j.CompiledGates, j.CZCount, j.CompileStats)
	fmt.Printf("  duration: %.1f ms on control electronics\n", j.DurationUs/1000)
	shown := 0
	for outcome, count := range j.Counts {
		if shown >= 8 {
			fmt.Printf("  ... %d more outcomes\n", len(j.Counts)-8)
			break
		}
		fmt.Printf("  outcome %d: %d\n", outcome, count)
		shown++
	}
}

// printFleetStatus renders the fleet snapshot as the operator table.
func printFleetStatus(m *fleet.Metrics) {
	fmt.Printf("fleet: %d devices, policy %s\n", len(m.Devices), m.Policy)
	fmt.Printf("jobs: %d submitted, %d routed, %d migrated, %d completed, %d failed, %d parked now\n",
		m.Submitted, m.Routed, m.Migrated, m.Completed, m.Failed, m.ParkedNow)
	fmt.Printf("%-24s %-12s %6s %6s %6s %8s %8s %8s %8s %8s\n",
		"DEVICE", "STATE", "QUBITS", "QUEUE", "INFL", "ROUTED", "MIGR-OUT", "DONE", "F1Q", "FCZ")
	for _, d := range m.Devices {
		fmt.Printf("%-24s %-12s %6d %6d %6d %8d %8d %8d %8.4f %8.4f\n",
			d.Name, d.State, d.Qubits, d.QueueDepth, d.Inflight,
			d.Routed, d.MigratedOut, d.Completed, d.MeanF1Q, d.MeanFCZ)
	}
}

// benchConfig parameterizes the load harness.
type benchConfig struct {
	clients, jobs, shots, qubits int
	batch                        bool
	// device/policy pass through as routing controls.
	device, policy string
	jsonOut        string
}

// benchJSON is the machine-readable bench record (-json flag) — the same
// shape BENCH_fleet.json tracks across PRs.
type benchJSON struct {
	Mode       string         `json:"mode"`
	Clients    int            `json:"clients"`
	JobsPerCli int            `json:"jobs_per_client"`
	Shots      int            `json:"shots"`
	Qubits     int            `json:"qubits"`
	WallMs     float64        `json:"wall_ms"`
	JobsPerSec float64        `json:"jobs_per_sec"`
	P50Ms      float64        `json:"p50_ms"`
	P95Ms      float64        `json:"p95_ms"`
	Failures   int            `json:"failures"`
	ByDevice   map[string]int `json:"by_device,omitempty"`
}

// runBench drives N concurrent clients against a running qhpcd and reports
// job throughput, the client-observed latency distribution and the
// per-device job distribution — the load harness for the fleet scheduler.
func runBench(server string, cfg benchConfig) {
	if cfg.clients < 1 || cfg.jobs < 1 {
		log.Fatal("bench needs -clients >= 1 and -jobs >= 1")
	}
	ghz := circuit.GHZ(cfg.qubits)
	var mu sync.Mutex
	var latencies []time.Duration
	var failures int
	byDevice := map[string]int{}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := mqss.NewRemoteClient(server, nil)
			user := fmt.Sprintf("bench-%d", c)
			reqs := make([]qrm.Request, cfg.jobs)
			for i := range reqs {
				reqs[i] = qrm.Request{Circuit: ghz, Shots: cfg.shots, User: user}
			}
			route := mqss.RouteOptions{Device: cfg.device, Policy: cfg.policy}
			if cfg.batch {
				delivered := 0
				batchStart := time.Now()
				_, err := cl.StreamBatchRouted(context.Background(), reqs, route,
					func(j *fleet.Job) {
						lat := time.Since(batchStart)
						mu.Lock()
						delivered++
						latencies = append(latencies, lat)
						byDevice[j.Device]++
						if j.Status != fleet.JobDone {
							failures++
						}
						mu.Unlock()
					})
				if err != nil {
					log.Printf("bench client %d: %v", c, err)
					mu.Lock()
					// Only jobs the stream never delivered count as extra
					// failures; delivered ones were already tallied above.
					failures += cfg.jobs - delivered
					mu.Unlock()
				}
				return
			}
			for _, req := range reqs {
				jobStart := time.Now()
				j, err := cl.RunRouted(context.Background(), req, route)
				lat := time.Since(jobStart)
				mu.Lock()
				latencies = append(latencies, lat)
				if err != nil || j.Status != fleet.JobDone {
					failures++
				} else {
					byDevice[j.Device]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := cfg.clients * cfg.jobs
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	mode := "sequential submits"
	if cfg.batch {
		mode = "streamed batches"
	}
	fmt.Printf("bench: %d clients x %d jobs (%s), GHZ(%d) x %d shots\n",
		cfg.clients, cfg.jobs, mode, cfg.qubits, cfg.shots)
	fmt.Printf("  wall time:    %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput:   %.1f jobs/s\n", float64(total)/elapsed.Seconds())
	fmt.Printf("  latency:      p50 %v, p95 %v, max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Printf("  failures:     %d/%d\n", failures, total)
	if len(byDevice) > 0 {
		fmt.Printf("  by device:\n")
		names := make([]string, 0, len(byDevice))
		for name := range byDevice {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-24s %d jobs\n", name, byDevice[name])
		}
	}

	if m, err := mqss.NewRemoteClient(server, nil).FleetMetrics(context.Background()); err == nil {
		fmt.Printf("server fleet: %d devices, %d routed, %d migrated, %d completed\n",
			len(m.Devices), m.Routed, m.Migrated, m.Completed)
	}

	if cfg.jsonOut != "" {
		rec := benchJSON{
			Mode: mode, Clients: cfg.clients, JobsPerCli: cfg.jobs,
			Shots: cfg.shots, Qubits: cfg.qubits,
			WallMs:     float64(elapsed.Microseconds()) / 1000,
			JobsPerSec: float64(total) / elapsed.Seconds(),
			P50Ms:      float64(pct(0.50).Microseconds()) / 1000,
			P95Ms:      float64(pct(0.95).Microseconds()) / 1000,
			Failures:   failures,
		}
		if len(byDevice) > 0 {
			rec.ByDevice = byDevice
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(cfg.jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", cfg.jsonOut)
	}
}

// simBenchParams parameterizes the in-process execution-engine bench.
// jobs == 0 keeps the harness defaults (the artifact configuration).
type simBenchParams struct {
	shots, qubits, jobs int
	jsonOut             string
}

// runSimBench runs the device-level execution-engine harness (the one
// behind BENCH_sim.json) in process — no daemon needed — and reports the
// naive-vs-compiled speedups.
func runSimBench(p simBenchParams) {
	art, err := device.RunSimBench(device.SimBenchConfig{
		Shots: p.shots, Qubits: p.qubits,
		NoiselessJobs: p.jobs, NoisyJobs: p.jobs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim bench: %s\n", art.Workload)
	for _, row := range art.Rows {
		fmt.Printf("  %-14s naive %8.0f jobs/s (p50 %7.3f ms)  ->  compiled %8.0f jobs/s (p50 %7.3f ms, p95 %7.3f ms)  %5.1fx",
			row.Name, row.NaiveJobsPerSec, row.NaiveP50Ms,
			row.CompiledJobsPerSec, row.CompiledP50Ms, row.CompiledP95Ms, row.Speedup)
		if row.BranchLeavesPerShot > 0 {
			fmt.Printf("  [%.3f leaves/shot]", row.BranchLeavesPerShot)
		}
		if row.DistCacheHits > 0 {
			fmt.Printf("  [%d dist-cache hits]", row.DistCacheHits)
		}
		fmt.Println()
	}
	fmt.Printf("  speedup: %.1fx noiseless (fast path), %.1fx noisy (shot-branching path)\n",
		art.SpeedupNoiseless, art.SpeedupNoisy)
	if p.jsonOut != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(p.jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", p.jsonOut)
	}
}

func printJob(j *qrm.Job) {
	fmt.Printf("job #%d: %s\n", j.ID, j.Status)
	if j.Error != "" {
		fmt.Printf("  error: %s\n", j.Error)
		return
	}
	fmt.Printf("  compiled: %d gates (%d CZ) — %s\n", j.CompiledGates, j.CZCount, j.CompileStats)
	fmt.Printf("  layout (logical->physical): %v\n", j.Layout)
	fmt.Printf("  duration: %.1f ms on control electronics\n", j.DurationUs/1000)
	n := j.Request.Circuit.NumQubits
	shown := 0
	for outcome, count := range j.Counts {
		if shown >= 8 {
			fmt.Printf("  ... %d more outcomes\n", len(j.Counts)-8)
			break
		}
		logical := 0
		for i, p := range j.Layout {
			if outcome&(1<<uint(p)) != 0 {
				logical |= 1 << uint(i)
			}
		}
		fmt.Printf("  |%s> %d\n", quantum.FormatBitstring(logical, n), count)
		shown++
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: qhpcctl [-server URL] <command>
commands:
  device [name]                        show device properties and live calibration
                                       (name one backend when the server has several)
  submit [-shots N] [-user U] [-device D] [-policy P] f.qasm
                                       submit an OpenQASM circuit and wait; -device pins
                                       a backend, -policy overrides routing
  job <id>                             show one job (legacy v1 record)
  job submit [-shots N] [-user U] [-priority N] [-deadline-ms N]
             [-device D] [-policy P] [-idempotency-key K] [-wait] f.qasm
                                       async v2 submission: returns the job handle
                                       immediately (-wait blocks for the result)
  job status <j-id>                    show the unified v2 job record
  job watch <j-id>                     stream lifecycle events until terminal
  job cancel <j-id>                    cancel (propagates into the pipeline)
  trace <j-id>                         render the job's span tree as a waterfall:
                                       per-stage start offsets, durations, and
                                       % of total wall time (docs/OBSERVABILITY.md)
  history [-user U] [-offset N] [-limit N]   page through job history
  fleet [status]                       show per-device fleet status
  bench [-clients N] [-jobs N] [-shots N] [-qubits N] [-batch]
        [-device D] [-policy P] [-sim] [-json FILE]
                                       drive concurrent load and report throughput/latency
                                       and the per-device job split; -json writes results,
                                       -sim runs the in-process execution-engine bench
                                       (naive vs compiled shot loop, BENCH_sim.json shape)
  scenarios list                       list the registered fault scenarios
  scenarios run [-name X] [-runs N] [-json FILE] [-negative-control]
                                       run the fault-scenario lab in process and apply
                                       the SLO release gates (docs/SCENARIOS.md)
  store [status]                       show the crash-durable job store: WAL position,
                                       segments, compaction, and what the last restart
                                       recovered (docs/DURABILITY.md)
  tenants [status]                     show the multi-tenant admission plane: configured
                                       rate limit and queue bounds plus per-tenant usage
                                       (queue depth, completions, sheds, throttles)
  federation [status]                  show the sharded-fleet membership: peers, liveness,
                                       and each member's job-ID range (docs/FEDERATION.md)`)
	os.Exit(2)
}
