package scenario

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/mqss"
)

// The built-in incident suite. Each scenario replays one class of outage
// the stack claims to survive, through the real machinery that survives
// it: fleet failover, epoch-keyed compile caches, least-loaded
// routing, queue deadlines, watch-stream fan-out, and maintenance drains.
// Seeds are fixed; reruns derive from them (see Provenance.SeedPolicy).

func init() {
	Register(deviceDeathMidBatch())
	Register(calibDriftMidJob())
	Register(slowStraggler())
	Register(watchChurn())
	Register(deadlineStorm())
	Register(maintenanceDrain())
	Register(nodeCrashRecovery())
	Register(tenantHog())
	Register(overloadStorm())
	Register(peerDeathReshard())
	Register(crossNodeWatch())
}

// conserveTenants asserts per-tenant job conservation on every node:
// every submission is accounted exactly once across terminal states and the
// queue — shed jobs fail loudly, they never vanish. Each job lives on
// exactly one node (its ID names the owner), so summing per-node
// conservation covers a federation: no job lost or double-executed.
func conserveTenants(e *Env) error {
	for _, n := range e.nodes() {
		for _, r := range n.Fleet.TenantUsage() {
			total := r.Completed + r.Failed + r.Cancelled + r.Interrupted + r.Shed + uint64(r.Queued)
			if r.Submitted != total {
				return fmt.Errorf("%s tenant %s: %d submitted but %d accounted (%+v)", n.Name, r.User, r.Submitted, total, r)
			}
		}
	}
	return nil
}

// deviceDeathMidBatch poisons one device's control electronics with a
// backlog in flight, then marks it failed. The failover machinery must
// re-queue every job whose run failed under it: zero failures surface to
// clients. The
// negative control (React withheld) leaves the device active-and-poisoned;
// fast failures make it look least-loaded, it attracts the batch, and the
// error-rate gate trips.
func deviceDeathMidBatch() Spec {
	const victim = 1
	return Spec{
		Name:        "device-death-midbatch",
		Description: "one QPU's control electronics die mid-batch; failover must re-queue every job that failed under it",
		Seed:        101,
		Hooks: Hooks{
			Fault: func(e *Env) { e.QPU(victim).InjectFaults(1 << 20) },
			React: func(e *Env) { e.Fleet.Fail(e.DeviceName(victim)) },
			Recover: func(e *Env) {
				e.QPU(victim).InjectFaults(0)
				e.Fleet.Recover(e.DeviceName(victim))
			},
		},
	}
}

// calibDriftMidJob ages every device's calibration repeatedly while jobs
// stream: each epoch bump publishes a new epoch with an empty compile map,
// so the pipeline must recompile under load without latency blowing the
// bound.
func calibDriftMidJob() Spec {
	return Spec{
		Name:        "calib-drift-midjob",
		Description: "calibration epochs churn under load; the compile cache must recompile without stalling the pipeline",
		Seed:        102,
		Hooks: Hooks{
			Fault: func(e *Env) {
				drift := func() {
					for _, name := range e.Names {
						e.QPUs[name].AdvanceDrift(6)
					}
				}
				drift()
				e.Go(func() {
					for {
						select {
						case <-e.InjectDone():
							return
						case <-time.After(15 * time.Millisecond):
							drift()
						}
					}
				})
			},
			Recover: func(e *Env) {
				for _, name := range e.Names {
					e.QPUs[name].Recalibrate(false)
				}
			},
		},
	}
}

// slowStraggler paces one device's exec latency 20x up mid-batch. The
// least-loaded policy must steer new work around the straggler; the jobs
// already queued there pay the tail, hence the looser inject p95 bound.
func slowStraggler() Spec {
	const victim = 2
	return Spec{
		Name:        "slow-straggler",
		Description: "one QPU turns 20x slower mid-batch; routing must steer around it",
		Seed:        103,
		Hooks: Hooks{
			Fault: func(e *Env) { e.QPU(victim).SetExecLatency(40 * time.Millisecond) },
			Recover: func(e *Env) {
				e.QPU(victim).SetExecLatency(e.Spec.Fleet.ExecLatency)
			},
		},
		SLO: SLO{P95Ms: map[Phase]float64{Inject: 1200}},
	}
}

// watchChurn hammers the v2 watch endpoint with short-lived clients that
// subscribe to live jobs and abandon the stream. The lossy watch feeds and
// the server's stream teardown must keep the measured watchers' terminal
// delivery intact.
func watchChurn() Spec {
	return Spec{
		Name:        "watch-churn",
		Description: "short-lived watch clients churn against live jobs; measured watch streams must still deliver terminal events",
		Seed:        104,
		Hooks: Hooks{
			Fault: func(e *Env) {
				for w := 0; w < 4; w++ {
					e.Go(func() {
						for {
							select {
							case <-e.InjectDone():
								return
							default:
							}
							id := e.RecentJobID()
							if id == "" {
								time.Sleep(time.Millisecond)
								continue
							}
							h, err := e.Client.Handle(id)
							if err != nil {
								continue
							}
							ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
							h.Watch(ctx, nil) // abandoned mid-stream on timeout
							cancel()
						}
					})
				}
			},
		},
	}
}

// deadlineStorm floods the queues with low-priority jobs whose dispatch
// deadline has effectively already passed. Every storm job must still
// reach a terminal (failed, deadline-exceeded) state — expiry is enforced
// at claim time — while the measured load's latency and error rate hold.
func deadlineStorm() Spec {
	return Spec{
		Name:        "deadline-storm",
		Description: "a burst of already-expired low-priority jobs floods the queues; all must terminate, measured load must hold",
		Seed:        105,
		Hooks: Hooks{
			Fault: func(e *Env) {
				ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
				defer cancel()
				for i := 0; i < 48; i++ {
					e.SubmitChaff(ctx, mqss.SubmitRequest{
						Circuit:    circuit.GHZ(3 + i%3),
						Shots:      5,
						User:       "storm",
						Priority:   -1,
						DeadlineMs: 0.05,
					})
				}
			},
		},
	}
}

// nodeCrashRecovery kills the control node mid-batch — the durable store is
// abandoned with its group-commit buffer unflushed, exactly the disk state
// SIGKILL leaves — and reboots it from the same data directory on the same
// address. The WAL replay must bring back every acked job: terminal ones
// with results, in-flight ones re-queued under their original IDs, and the
// severed watch streams must re-attach and still deliver terminal events.
// The inject p95 bound absorbs the restart downtime the straddling jobs pay.
func nodeCrashRecovery() Spec {
	return Spec{
		Name:        "node-crash-recovery",
		Description: "kill -9 of the control node mid-batch; WAL replay must finish every acked job with no losses",
		Seed:        107,
		Hooks: Hooks{
			Setup: func(e *Env) {
				if err := e.EnableDurability(); err != nil {
					panic(err)
				}
			},
			Fault: func(e *Env) {
				if err := e.Crash(); err != nil {
					panic(err)
				}
			},
		},
		SLO: SLO{P95Ms: map[Phase]float64{Inject: 2500}},
	}
}

// tenantHog stripes the measured load across four tenants, then has a fifth
// flood the queues at 10x the whole measured batch. No rate limiter, no
// shedding: weighted-fair claiming alone must keep every victim tenant's
// inject p95 within 2x its warmup baseline (the default 250/500ms bounds)
// while the hog's backlog absorbs the wait. The Check hook pins the flood
// really landed and that every victim tenant still completed all its jobs.
func tenantHog() Spec {
	const victims = 4
	return Spec{
		Name:        "tenant-hog",
		Description: "one tenant floods submits at 10x the measured batch; WFQ must hold every other tenant near its baseline latency",
		Seed:        108,
		Load:        LoadProfile{Tenants: victims},
		Hooks: Hooks{
			Fault: func(e *Env) {
				flood := 10 * e.Spec.Load.Jobs
				e.Go(func() {
					ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
					defer cancel()
					for i := 0; i < flood; i++ {
						if _, err := e.SubmitChaff(ctx, mqss.SubmitRequest{
							Circuit: circuit.GHZ(3 + i%3),
							Shots:   5,
							User:    "hog",
						}); err != nil {
							return
						}
					}
				})
			},
			Check: func(e *Env) error {
				if err := conserveTenants(e); err != nil {
					return err
				}
				perVictim := uint64(0)
				for _, r := range e.Fleet.TenantUsage() {
					if r.User == "hog" {
						continue
					}
					if r.Completed != r.Submitted {
						return fmt.Errorf("victim tenant %s lost throughput to the hog: %d/%d completed", r.User, r.Completed, r.Submitted)
					}
					if r.Submitted > perVictim {
						perVictim = r.Submitted
					}
				}
				for _, r := range e.Fleet.TenantUsage() {
					if r.User == "hog" {
						if r.Submitted < 5*perVictim {
							return fmt.Errorf("hog only reached %d submissions vs %d per victim: not a flood", r.Submitted, perVictim)
						}
						return nil
					}
				}
				return errors.New("hog tenant never showed up in the usage rows")
			},
		},
	}
}

// overloadStorm is the admission-control storm: ~1000 distinct best-effort
// users flood the queues far past capacity while eight measured tenants keep
// submitting. The queue-level shedder (per-device high-water mark) must shed
// the excess as loud retryable failures — never drop it — and the measured
// load must stay inside its (looser) latency bound. The Check hook asserts
// the shedder actually fired and that shed + completed + failed + queued
// equals submitted for every one of the ~1000 tenants.
func overloadStorm() Spec {
	return Spec{
		Name:        "overload-storm",
		Description: "a ~1000-user storm at far over capacity; admission must shed loudly, conserve every job, and hold the measured load's bound",
		Seed:        109,
		// Slow devices and a low high-water mark: capacity is what the storm
		// must exceed, and it must exceed it even when the race detector
		// halves the flood's submit rate — the default 2ms fleet drains
		// faster than loopback HTTP can flood. The measured load's burst
		// (jobs/devices ~ 8 per device) stays well under the mark.
		Fleet:     FleetProfile{ExecLatency: 25 * time.Millisecond},
		Load:      LoadProfile{Tenants: 8},
		Admission: AdmissionProfile{MaxTenantQueue: 48, HighWater: 24},
		Hooks: Hooks{
			Fault: func(e *Env) {
				stormUsers := 30 * e.Spec.Load.Jobs // ~1000 distinct users at lab scale
				// The storm arrives on parallel connections — a sequential
				// submitter cannot outrun the fleet's drain rate, and a storm
				// that never backs the queue up sheds nothing.
				const lanes = 16
				for lane := 0; lane < lanes; lane++ {
					lane := lane
					e.Go(func() {
						ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
						defer cancel()
						for i := lane; i < stormUsers; i += lanes {
							if _, err := e.SubmitChaff(ctx, mqss.SubmitRequest{
								Circuit:  circuit.GHZ(3 + i%4),
								Shots:    5,
								User:     fmt.Sprintf("storm-%04d", i),
								Priority: -1,
							}); err != nil {
								return
							}
						}
					})
				}
			},
			Check: func(e *Env) error {
				if err := conserveTenants(e); err != nil {
					return err
				}
				if shed := e.Fleet.Metrics().Shed; shed == 0 {
					return errors.New("a storm at 30x the measured batch against a 24-deep high-water mark never tripped the shedder")
				}
				return nil
			},
		},
		SLO: SLO{P95Ms: map[Phase]float64{Inject: 1500}},
	}
}

// peerDeathReshard federates the stack into three full nodes, then kill -9s
// one peer mid-batch: the main node's failure detector must declare it dead
// on heartbeats alone, reads of its jobs must refuse with retryable 503s
// (never re-place — that would risk double execution), and the WAL-recovered
// reboot must re-admit every acked job under its original ID. The inject
// p95 bound absorbs the detection window plus the restart.
func peerDeathReshard() Spec {
	return Spec{
		Name:        "peer-death-reshard",
		Description: "kill -9 of one federation peer mid-batch; heartbeat death detection, retryable refusals, and WAL-recovered re-admission with no job lost or double-executed",
		Seed:        110,
		Fleet:       FleetProfile{Devices: 2},
		Hooks: Hooks{
			Setup: func(e *Env) {
				if err := e.EnableFederation(2); err != nil {
					panic(err)
				}
			},
			Fault: func(e *Env) {
				if err := e.CrashPeer(0); err != nil {
					panic(err)
				}
			},
			Check: func(e *Env) error {
				if err := conserveTenants(e); err != nil {
					return err
				}
				m := e.Federation().Metrics()
				if m.ForwardedSubmits == 0 {
					return errors.New("no submission ever crossed nodes: the load was not sharded")
				}
				if m.HeartbeatsFailed == 0 {
					return errors.New("the dead peer never failed a heartbeat: the kill did not land")
				}
				p := e.Peers[0]
				if rs := p.Fleet.Restored(); rs.Terminal+rs.Requeued+rs.Expired == 0 {
					return fmt.Errorf("%s's WAL replay recovered nothing: the crash window held no acked jobs", p.Name)
				}
				return nil
			},
		},
		SLO: SLO{P95Ms: map[Phase]float64{Inject: 4000}},
	}
}

// crossNodeWatch federates the stack into three nodes and churns watch
// streams through every member against jobs they do not own, while the
// measured watches ride node-0 proxies to the owners. Every member must
// pass streams through transparently: the measured load's watch-terminal
// and latency gates hold with proxying on the path.
func crossNodeWatch() Spec {
	return Spec{
		Name:        "cross-node-watch",
		Description: "watch streams attach through non-owner federation members under churn; proxied streams must still deliver every terminal event",
		Seed:        111,
		Fleet:       FleetProfile{Devices: 2},
		Hooks: Hooks{
			Setup: func(e *Env) {
				if err := e.EnableFederation(2); err != nil {
					panic(err)
				}
			},
			Fault: func(e *Env) {
				// Short-lived watchers through each PEER node: the jobs they
				// watch were submitted through node-0, so most attach via a
				// cross-node proxy stream and abandon it mid-flight.
				for _, p := range e.Peers {
					p := p
					e.Go(func() {
						for {
							select {
							case <-e.InjectDone():
								return
							default:
							}
							id := e.RecentJobID()
							if id == "" {
								time.Sleep(time.Millisecond)
								continue
							}
							h, err := p.Client.Handle(id)
							if err != nil {
								continue
							}
							ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
							h.Watch(ctx, nil) // abandoned mid-stream on timeout
							cancel()
						}
					})
				}
			},
			Check: func(e *Env) error {
				if err := conserveTenants(e); err != nil {
					return err
				}
				streams := uint64(0)
				for _, n := range e.nodes() {
					streams += n.Federation().Metrics().ProxiedStreams
				}
				if streams == 0 {
					return errors.New("no watch stream ever crossed nodes")
				}
				if e.Federation().Metrics().ForwardedSubmits == 0 {
					return errors.New("no submission ever crossed nodes: the load was not sharded")
				}
				return nil
			},
		},
		// Warmup throughput here crosses three full node stacks over
		// loopback HTTP, which is noisier run to run than the in-process
		// suites; the watch-terminal and zero-lost gates carry the
		// correctness load, so the variance backstop gets headroom.
		SLO: SLO{MaxSpreadPct: 120},
	}
}

// maintenanceDrain advances the simulation clock into a scheduled window on
// one device while jobs stream: the drained device stops claiming, its
// siblings take the queue, and leaving the window must restore full-fleet
// throughput.
func maintenanceDrain() Spec {
	const victim = 3
	return Spec{
		Name:        "maintenance-drain",
		Description: "a scheduled maintenance window drains one device under load; exit must restore warmup throughput",
		Seed:        106,
		Hooks: Hooks{
			Setup: func(e *Env) {
				e.Fleet.SetMaintenancePlan(e.DeviceName(victim),
					[]fleet.MaintenanceWindow{{StartDay: 1, Days: 1}})
			},
			Fault:   func(e *Env) { e.Fleet.AdvanceTo(1.5) },
			Recover: func(e *Env) { e.Fleet.AdvanceTo(2.5) },
		},
	}
}
