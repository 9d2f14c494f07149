// Command qhpcd runs the HPC+QC center's quantum fleet as a service: it
// serves the MQSS REST API — the remote asynchronous access path of Fig. 2 —
// over a commissioned QPU. The site survey and the cooldown happened once,
// before deployment (cmd/sitesurvey and core.Center simulate them); the
// daemon starts from the calibration they leave.
//
// Usage:
//
//	qhpcd [-addr :8080] [-seed 1] [-twin] [-workers 4]
//	      [-devices 1] [-fleet-policy best-fidelity] [-maintenance-days 0]
//	      [-pprof-addr localhost:6060]
//	      [-data-dir /var/lib/qhpcd/store] [-wal-sync group] [-wal-compact-every 1m]
//	      [-tenant-rate 0] [-tenant-burst 0] [-tenant-queue 0] [-queue-high-water 0]
//	      [-node-id node-a] [-self-url http://host1:8080] [-peers node-b=http://host2:8080]
//	      [-fed-heartbeat 1s] [-fed-dead-after 3s]
//
// The -node-id/-peers flags federate this daemon with other qhpcd nodes
// (docs/FEDERATION.md): submissions are placed by rendezvous hash on
// (tenant, idempotency-key) and any member transparently proxies reads,
// cancels, and watch streams to the job's owner, so clients can talk to
// whichever node they like.
//
// The -tenant-* flags turn on the multi-tenant admission plane (default off):
// a per-user token bucket on v2 submits (refusals are 429 with Retry-After
// and a retryable envelope) and queue-level load shedding — a fleet-wide
// per-tenant depth bound plus a fleet-wide high-water mark on the one queue,
// past which the lowest-priority queued jobs fail loudly with a retryable
// "shed" envelope.
// `qhpcctl tenants` and GET /api/v2/admin/tenants show per-tenant usage.
//
// With -data-dir the daemon journals every job transition to a crash-durable
// WAL (docs/DURABILITY.md): kill -9 the process, restart it with the same
// directory, and accepted jobs come back — terminal ones with their results,
// queued/running ones re-queued under their original IDs.
//
// Every deployment is a fleet behind the calibration-aware fleet scheduler:
// -devices 1 (the default) serves the primary 20-qubit QPU alone, -devices N
// adds N-1 simulated heterogeneous siblings (different grid shapes, seeds
// and drift histories). Clients pin with ?device= and steer routing with
// ?policy=; `qhpcctl fleet` shows the roster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (-pprof-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/quantum"
	"repro/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for the REST API")
	seed := flag.Int64("seed", 1, "simulation seed")
	twin := flag.Bool("twin", false, "serve the noiseless digital twin instead of the noisy QPU")
	workers := flag.Int("workers", 4, "dispatch workers per device (>= 1)")
	devices := flag.Int("devices", 1, "fleet size: the primary QPU plus N-1 simulated siblings")
	policyFlag := flag.String("fleet-policy", string(fleet.PolicyBestFidelity),
		"fleet routing policy: best-fidelity, least-loaded, or round-robin")
	maintDays := flag.Float64("maintenance-days", 0,
		"attach staggered maintenance windows every N days to each fleet device (0 = none)")
	simRate := flag.Float64("sim-rate", 0,
		"simulated days per wall-clock second driving the fleet maintenance clock (0 = frozen; defaults to 1 when -maintenance-days is set)")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	dataDir := flag.String("data-dir", "",
		"crash-durable job store directory (WAL + snapshots); on restart the daemon replays it and re-queues interrupted work (empty = in-memory only)")
	walSync := flag.String("wal-sync", "group",
		"WAL durability mode: always (fsync per record), group (batched fsync; default), off (no fsync — crash loses recent acks)")
	walCompactEvery := flag.Duration("wal-compact-every", time.Minute,
		"snapshot-compact the WAL at this interval (0 = only on shutdown)")
	tenantRate := flag.Float64("tenant-rate", 0,
		"per-tenant submission rate limit in jobs/s (0 = no rate limiting)")
	tenantBurst := flag.Int("tenant-burst", 0,
		"per-tenant token-bucket burst; defaults to ceil(-tenant-rate) when rate limiting is on")
	tenantQueue := flag.Int("tenant-queue", 0,
		"max queued jobs per tenant, fleet-wide; overflow is shed as retryable failures (0 = unbounded)")
	queueHighWater := flag.Int("queue-high-water", 0,
		"fleet queue depth past which the lowest-priority queued jobs are shed (0 = unbounded)")
	nodeID := flag.String("node-id", "",
		"federation member name; joins the peers named by -peers into one sharded fleet (empty = standalone)")
	selfURL := flag.String("self-url", "",
		"this node's base URL as its peers reach it (e.g. http://host1:8080); used with -node-id")
	peersFlag := flag.String("peers", "",
		"comma-separated id=url list of the OTHER federation members (e.g. node-b=http://host2:8080,node-c=http://host3:8080)")
	fedHeartbeat := flag.Duration("fed-heartbeat", time.Second,
		"federation heartbeat interval")
	fedDeadAfter := flag.Duration("fed-dead-after", 0,
		"declare a silent peer dead after this long (default 3x -fed-heartbeat)")
	flag.Parse()
	if err := checkFlags(*workers, *simRate, *maintDays, *tenantRate, *tenantQueue, *queueHighWater); err != nil {
		log.Fatalf("qhpcd: %v", err)
	}

	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener (the pprof
		// import registers on http.DefaultServeMux), so hot-path work can be
		// profiled against the live daemon without exposing profiles on the
		// public API port.
		go func() {
			fmt.Fprintf(os.Stderr, "qhpcd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("qhpcd: pprof listener: %v", err)
			}
		}()
	}

	f, err := buildFleet(*seed, *twin, *devices, *workers, *policyFlag, *maintDays)
	if err != nil {
		log.Fatalf("qhpcd: building fleet: %v", err)
	}
	admission := tenant.Admission{MaxTenantQueue: *tenantQueue, HighWater: *queueHighWater}
	if admission.Enabled() {
		f.SetAdmission(admission)
	}
	mqssServer := mqss.NewFleetServer(f)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Crash durability: replay the store (snapshot + WAL) and hand the
	// recovered jobs to the fleet before the listener opens.
	var store *durable.Store
	if *dataDir != "" {
		mode, err := durable.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("qhpcd: %v", err)
		}
		replayStart := time.Now()
		st, recovery, err := durable.Open(*dataDir, durable.Options{Sync: mode})
		if err != nil {
			log.Fatalf("qhpcd: opening durable store: %v", err)
		}
		store = st
		fmt.Fprintf(os.Stderr, "qhpcd: durable store %s (wal-sync=%s): replayed %d records (%d segments, snapshot lsn %d) in %v\n",
			*dataDir, mode, recovery.Stats.Records, recovery.Stats.Segments,
			recovery.Stats.SnapshotLSN, time.Since(replayStart).Round(time.Millisecond))
		if recovery.Stats.SkippedBytes > 0 {
			log.Printf("qhpcd: WAL had a torn tail: %d trailing bytes ignored (normal after a crash)", recovery.Stats.SkippedBytes)
		}
		rs, err := mqssServer.AttachStore(store, recovery)
		if err != nil {
			log.Fatalf("qhpcd: restoring jobs: %v", err)
		}
		fmt.Fprintf(os.Stderr, "qhpcd: recovered %d jobs (%d terminal, %d re-queued, %d expired) from %s\n",
			rs.Terminal+rs.Requeued+rs.Expired, rs.Terminal, rs.Requeued, rs.Expired, *dataDir)
		if *walCompactEvery > 0 {
			go func(every time.Duration) {
				for range time.Tick(every) {
					if err := store.Compact(); err != nil {
						log.Printf("qhpcd: WAL compaction: %v", err)
					}
				}
			}(*walCompactEvery)
		}
	}
	fmt.Fprintf(os.Stderr, "qhpcd: fleet of %d devices (%s routing, %d workers each): %v\n",
		*devices, f.Policy(), *workers, f.Devices())
	// The engine's one-qubit passes run on the vector unit when the CPU has
	// AVX2 and on the Go rows otherwise: the counts are the same, the speed
	// is not, so the log names which one served this run.
	fmt.Fprintf(os.Stderr, "qhpcd: one-qubit passes on the %s row kernel\n", quantum.RowKernel())
	fmt.Fprintf(os.Stderr, "qhpcd: routing: a submission's \"device\" pins a backend, \"policy\" overrides the fleet policy; GET /api/v1/fleet shows the roster\n")
	// Maintenance windows live on the simulation clock; a frozen clock
	// would make -maintenance-days a no-op, so it defaults on.
	rate := *simRate
	if rate == 0 && *maintDays > 0 {
		rate = 1
	}
	if rate > 0 {
		fmt.Fprintf(os.Stderr, "qhpcd: simulation clock at %.3g days/s (maintenance windows will drain devices on schedule)\n", rate)
		go runClock(ctx, f, commissionedDay, rate, 250*time.Millisecond)
	}
	if *tenantRate > 0 {
		burst := *tenantBurst
		if burst < 1 {
			burst = int(math.Ceil(*tenantRate))
		}
		mqssServer.SetTenantLimits(*tenantRate, burst)
		fmt.Fprintf(os.Stderr, "qhpcd: per-tenant rate limit %.3g jobs/s (burst %d); over-limit submits get 429 + Retry-After\n",
			*tenantRate, burst)
	}
	if admission.Enabled() {
		fmt.Fprintf(os.Stderr, "qhpcd: queue admission bounds: per-tenant %d, high-water %d (0 = unbounded); overflow is shed as retryable failures\n",
			admission.MaxTenantQueue, admission.HighWater)
	}
	// Federation: join the peer set AFTER the store restore so recovered
	// jobs are already queryable when peers start proxying, and before the
	// listener opens so the /api/v2/federation routes exist from the first
	// request. AttachFederation keeps the fleet minting inside this
	// member's ID block, which is what lets any node map a job ID to its
	// owner.
	var fed *federation.Node
	if *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("qhpcd: %v", err)
		}
		fed, err = federation.New(federation.Config{
			NodeID: *nodeID, SelfURL: *selfURL, Peers: peers,
			HeartbeatEvery: *fedHeartbeat, DeadAfter: *fedDeadAfter,
		})
		if err != nil {
			log.Fatalf("qhpcd: federation: %v", err)
		}
		mqssServer.AttachFederation(fed)
		fed.Start()
		fmt.Fprintf(os.Stderr, "qhpcd: federation member %q (%d nodes, id range base %d): peers %s\n",
			*nodeID, len(peers)+1, fed.SelfBase(), peerSummary(peers))
		fmt.Fprintf(os.Stderr, "qhpcd: federation endpoints: GET /api/v2/federation/status, GET /api/v2/federation/owner?id=, POST /api/v2/federation/heartbeat; `qhpcctl federation status` for the membership table\n")
	} else if *peersFlag != "" {
		log.Fatalf("qhpcd: -peers requires -node-id (this node needs a name its peers agree on)")
	}
	fmt.Fprintf(os.Stderr, "qhpcd: serving MQSS REST API on %s\n", *addr)
	fmt.Fprintf(os.Stderr, "qhpcd: read-only endpoints: GET /api/v1/device, GET /api/v1/fleet, GET /api/v1/metrics, GET /healthz\n")
	fmt.Fprintf(os.Stderr, "qhpcd: job endpoints: POST /api/v2/jobs[?wait=], GET /api/v2/jobs[?user=&state=&cursor=], GET /api/v2/jobs/{id}[?wait=], GET /api/v2/jobs/{id}/events, GET /api/v2/jobs/{id}/trace, DELETE /api/v2/jobs/{id}\n")
	fmt.Fprintf(os.Stderr, "qhpcd: observability: GET /metrics (Prometheus text), `qhpcctl trace <j-id>` for span waterfalls (docs/OBSERVABILITY.md)\n")

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections, ends
	// active v2 watch streams cleanly (mqss.Server.Close), waits for
	// in-flight handlers, then stops the fleet: in-flight jobs finish, queued
	// ones settle failed, and with -data-dir their records are on disk.
	srv := newHTTPServer(*addr, mqssServer)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("qhpcd: %v", err)
		}
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "qhpcd: signal received; draining (watch streams, handlers, pipeline)\n")
		if fed != nil {
			fed.Close() // stop heartbeating before peers see half-closed state
		}
		mqssServer.Close() // release long-lived event streams first
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("qhpcd: shutdown: %v", err)
		}
		cancel()
		f.Stop()
		if store != nil {
			// The backend is quiescent: fold the WAL into one snapshot so the
			// next start replays a single file, then fsync-close the journal.
			if err := store.Compact(); err != nil {
				log.Printf("qhpcd: final WAL compaction: %v", err)
			}
			if err := store.Close(); err != nil {
				log.Printf("qhpcd: closing durable store: %v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "qhpcd: drained; bye\n")
	}
}

// The daemon's connection timeouts: how long a client may take to send a
// request's headers, and how long a keep-alive connection may sit between
// requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the daemon's server on addr. A connection that never
// finishes its headers, or idles, is closed after a fixed time. A request's
// body and its response are not timed (ReadTimeout and WriteTimeout stay
// zero): NDJSON and SSE watches and ?wait long-polls of up to a minute
// hold their connection for as long as they need.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
