// Command qhpcctl is the operator/user CLI for a running qhpcd: it submits
// OpenQASM circuits, inspects jobs and device state, and pages through the
// job listing — the dashboard operations §4's early users relied on.
//
// Usage:
//
//	qhpcctl -server http://localhost:8080 device
//	qhpcctl -server http://localhost:8080 job submit -shots 500 -user alice -wait circuit.qasm
//	qhpcctl -server http://localhost:8080 job status j-17
//	qhpcctl -server http://localhost:8080 job watch j-17
//	qhpcctl -server http://localhost:8080 job cancel j-17
//	qhpcctl -server http://localhost:8080 job list -user alice -limit 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/mqss"
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
	case "job":
		if len(args) < 2 {
			log.Fatal("job needs a subcommand (submit/status/watch/cancel/list)")
		}
		jobCommand(ctx, client, args[1:])
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

// jobCommand is the job group: submit returns immediately with a handle (or
// -wait blocks), status/watch/cancel operate on the opaque ID, list pages
// the history.
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
	case "list":
		fs := flag.NewFlagSet("job list", flag.ExitOnError)
		user := fs.String("user", "", "filter by user")
		state := fs.String("state", "", "filter by state (comma-separated: queued,routed,running,done,failed,cancelled)")
		limit := fs.Int("limit", 10, "page size")
		cursor := fs.String("cursor", "", "continue from a previous page's next_cursor")
		if err := fs.Parse(args[1:]); err != nil {
			log.Fatal(err)
		}
		opts := mqss.ListOptions{User: *user, Limit: *limit, Cursor: *cursor}
		if *state != "" {
			// The server validates the names (400 invalid_request).
			for _, v := range strings.Split(*state, ",") {
				opts.States = append(opts.States, mqss.JobState(strings.TrimSpace(v)))
			}
		}
		page, err := client.ListJobs(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		for _, j := range page.Jobs {
			fmt.Printf("  %-12s %-10s user=%-10s device=%-22s shots=%d\n",
				j.ID, j.State, j.User, j.Device, j.Shots)
		}
		if page.NextCursor != "" {
			fmt.Printf("next_cursor: %s\n", page.NextCursor)
		}
	default:
		log.Fatalf("unknown job subcommand %q (want: submit, status, watch, cancel, list)", args[0])
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

// printV2Job renders the job record; counts print as logical-order
// bitstrings, most frequent first.
func printV2Job(j *mqss.Job) {
	fmt.Printf("job %s: %s", j.ID, j.State)
	if j.Device != "" {
		fmt.Printf(" on %s (score %.4f)", j.Device, j.Score)
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
	fmt.Printf("  layout (logical->physical): %v\n", j.Layout)
	fmt.Printf("  duration: %.1f ms on control electronics\n", j.DurationUs/1000)
	// Project physical outcomes onto the placed logical qubits, merging
	// outcomes that differ only on unplaced qubits (readout noise there).
	logical := make(map[int]int)
	for outcome, count := range j.Counts {
		l := 0
		for i, p := range j.Layout {
			if outcome&(1<<uint(p)) != 0 {
				l |= 1 << uint(i)
			}
		}
		logical[l] += count
	}
	keys := make([]int, 0, len(logical))
	for l := range logical {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(a, b int) bool { return logical[keys[a]] > logical[keys[b]] })
	for i, l := range keys {
		if i >= 8 {
			fmt.Printf("  ... %d more outcomes\n", len(keys)-8)
			break
		}
		fmt.Printf("  |%s> %d\n", quantum.FormatBitstring(l, len(j.Layout)), logical[l])
	}
}

// printFleetStatus renders the fleet snapshot as the operator table.
func printFleetStatus(m *fleet.Metrics) {
	fmt.Printf("fleet: %d devices, policy %s\n", len(m.Devices), m.Policy)
	fmt.Printf("jobs: %d submitted, %d routed, %d migrated, %d completed, %d failed, %d queued now\n",
		m.Submitted, m.Routed, m.Migrated, m.Completed, m.Failed, m.QueueDepth)
	fmt.Printf("%-24s %-12s %6s %6s %8s %8s %8s %8s %8s\n",
		"DEVICE", "STATE", "QUBITS", "INFL", "ROUTED", "MIGR-OUT", "DONE", "F1Q", "FCZ")
	for _, d := range m.Devices {
		fmt.Printf("%-24s %-12s %6d %6d %8d %8d %8d %8.4f %8.4f\n",
			d.Name, d.State, d.Qubits, d.Inflight,
			d.Routed, d.MigratedOut, d.Completed, d.MeanF1Q, d.MeanFCZ)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: qhpcctl [-server URL] <command>
commands:
  device [name]                        show device properties and live calibration
                                       (name one backend when the server has several)
  job submit [-shots N] [-user U] [-priority N] [-deadline-ms N]
             [-device D] [-policy P] [-idempotency-key K] [-wait] f.qasm
                                       submit an OpenQASM circuit: returns the job handle
                                       immediately (-wait blocks for the result); -device
                                       pins a backend, -policy overrides routing
  job status <j-id>                    show the job record
  job watch <j-id>                     stream lifecycle events until terminal
  job cancel <j-id>                    cancel (propagates into the pipeline)
  job list [-user U] [-state S] [-limit N] [-cursor C]
                                       page through the job listing, newest first;
                                       prints next_cursor while older jobs remain
  trace <j-id>                         render the job's span tree as a waterfall:
                                       per-stage start offsets, durations, and
                                       % of total wall time (docs/OBSERVABILITY.md)
  fleet [status]                       show per-device fleet status
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
