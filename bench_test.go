// Benchmark harness: one benchmark per table/figure/quantitative claim of
// the paper (see DESIGN.md §3 for the experiment index). Each benchmark
// regenerates the corresponding artefact and reports the headline numbers
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// evaluation end to end. EXPERIMENTS.md records paper-vs-measured.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/circuit"
	"repro/internal/cryo"
	"repro/internal/device"
	"repro/internal/facility"
	"repro/internal/fleet"
	"repro/internal/hybrid"
	"repro/internal/mqss"
	"repro/internal/netmodel"
	"repro/internal/ops"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/transpile"
)

// --- E1: Table 1 — site survey acceptance over three candidates. ---

func BenchmarkTable1SiteSurvey(b *testing.B) {
	sites := []facility.Site{
		{Name: "urban", Env: facility.NoisyUrban(), DeliveryWidthCM: 130, FloorLoadKgM2: 2000, CellTowerDistM: 220, FluorescentM: 3},
		{Name: "borderline", Env: facility.Borderline(), DeliveryWidthCM: 95, FloorLoadKgM2: 1100, CellTowerDistM: 450, FluorescentM: 4},
		{Name: "basement", Env: facility.Quiet(), DeliveryWidthCM: 110, FloorLoadKgM2: 1600, CellTowerDistM: 800, FluorescentM: 6},
	}
	var accepted int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports, err := facility.RankSites(sites, facility.SurveyConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		accepted = 0
		for _, r := range reports {
			if r.Accepted {
				accepted++
			}
		}
	}
	b.ReportMetric(float64(accepted), "sites-accepted")
	b.ReportMetric(3, "sites-surveyed")
}

// --- E2: Figure 4 — autonomous calibration fidelity over 146 days. ---

func BenchmarkFigure4CalibrationSeries(b *testing.B) {
	var st ops.SeriesStats
	var rep *ops.Report
	for i := 0; i < b.N; i++ {
		sim, err := ops.New(ops.Config{Days: 146, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		rep, err = sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		st = rep.Stats()
	}
	b.ReportMetric(st.MeanF1Q, "mean-f1q")
	b.ReportMetric(st.MeanFReadout, "mean-freadout")
	b.ReportMetric(st.MeanFCZ, "mean-fcz")
	b.ReportMetric(rep.UnattendedDays, "unattended-days")
	b.ReportMetric(float64(rep.QuickCals), "quick-cals")
	b.ReportMetric(float64(rep.FullCals), "full-cals")
}

// --- E3: §2.4 — output bandwidth vs 1 GbE across qubit counts. ---

func BenchmarkSection24Bandwidth(b *testing.B) {
	var rate20 float64
	var rows []netmodel.ScalingRow
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = netmodel.ScalingTable([]int{20, 54, 150})
		if err != nil {
			b.Fatal(err)
		}
		rate20 = rows[0].RateBps
	}
	b.ReportMetric(rate20/1000, "kbit/s-at-20q")
	b.ReportMetric(rows[2].RateBps/1000, "kbit/s-at-150q")
	b.ReportMetric(100*rows[0].Utilization, "gbe-util-%")
}

// --- E4: §3.2 — quick (40 min) vs full (100 min) recalibration quality. ---

func BenchmarkSection32QuickVsFullRecal(b *testing.B) {
	var quickF, fullF float64
	for i := 0; i < b.N; i++ {
		seed := int64(100 + i)
		mk := func() *device.QPU {
			q := device.New20Q(seed)
			q.AdvanceDrift(72) // three days of drift before the procedure
			return q
		}
		qq := mk()
		qq.Recalibrate(false)
		quickF = qq.Calibration().MeanF1Q()
		qf := mk()
		qf.Recalibrate(true)
		fullF = qf.Calibration().MeanF1Q()
	}
	b.ReportMetric(quickF, "f1q-after-quick")
	b.ReportMetric(fullF, "f1q-after-full")
	b.ReportMetric(40, "quick-minutes")
	b.ReportMetric(100, "full-minutes")
}

// --- E5: §3.5 — outage recovery timelines and the redundancy ablation. ---

func BenchmarkSection35OutageRecovery(b *testing.B) {
	var secsTo1K, cooldownDays float64
	for i := 0; i < b.N; i++ {
		// Time from cooling fault to calibration loss (paper: ~2 min).
		c := cryo.New()
		c.SetCooling(cryo.CoolingOff)
		secsTo1K = 0
		for c.CalibrationSafe() {
			c.Advance(5)
			secsTo1K += 5
		}
		// Full cooldown from ambient (paper: 2-5 days).
		w := cryo.NewWarm()
		w.SetCooling(cryo.CoolingOn)
		hours := 0.0
		for !w.AtBase() {
			w.Advance(3600)
			hours++
		}
		cooldownDays = hours / 24
	}
	b.ReportMetric(secsTo1K, "secs-to-1K")
	b.ReportMetric(cooldownDays, "cooldown-days")
}

func BenchmarkSection35RedundancyAblation(b *testing.B) {
	outages := []ops.OutageEvent{{Kind: ops.OutageCoolingWater, StartDay: 3, DurationHours: 6}}
	var availSingle, availRedundant float64
	for i := 0; i < b.N; i++ {
		s1, err := ops.New(ops.Config{Days: 14, Seed: 3, Outages: outages})
		if err != nil {
			b.Fatal(err)
		}
		r1, err := s1.Run()
		if err != nil {
			b.Fatal(err)
		}
		s2, err := ops.New(ops.Config{Days: 14, Seed: 3, Redundant: true, Outages: outages})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := s2.Run()
		if err != nil {
			b.Fatal(err)
		}
		availSingle = r1.AvailableFraction
		availRedundant = r2.AvailableFraction
	}
	b.ReportMetric(100*availSingle, "avail-single-%")
	b.ReportMetric(100*availRedundant, "avail-redundant-%")
}

// --- E6: §2.2 — power profile vs the Cray EX4000 envelope. ---

func BenchmarkSection22PowerProfile(b *testing.B) {
	var peak, steady float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		warm := cryo.NewWarm()
		warm.SetCooling(cryo.CoolingOn)
		peak = warm.PowerDrawKW()
		cold := cryo.New()
		steady = cold.PowerDrawKW()
	}
	b.ReportMetric(peak, "peak-kw")
	b.ReportMetric(steady, "steady-kw")
	b.ReportMetric(140, "cray-ex4000-kw")
}

// --- E7: Figure 2 — MQSS routing, HPC path vs REST path. ---

func BenchmarkFigure2MQSSRoutingHPCPath(b *testing.B) {
	// The in-HPC client of Fig. 2: the v2 client calling the server's handler
	// in-process, with no socket in between.
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	defer f.Stop()
	if err := f.AddDevice("twin", qdmi.NewDevice(device.NewTwin20Q(1), nil), 1); err != nil {
		b.Fatal(err)
	}
	client := mqss.NewLocalClient(mqss.NewFleetServer(f))
	ghz := circuit.GHZ(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := client.Run(context.Background(), mqss.SubmitRequest{Circuit: ghz, Shots: 10, User: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if j.State != mqss.StateDone {
			b.Fatalf("job %s: %s (%v)", j.ID, j.State, j.Error)
		}
	}
}

// --- E8: Figure 3 / §3.1 — telemetry-aware JIT placement vs static. ---

func BenchmarkFigure3JITPlacement(b *testing.B) {
	// A device drifted for a week without calibration: the JIT path should
	// find better qubits than the static identity layout.
	qpu := device.New20Q(8)
	qpu.AdvanceDrift(24 * 7)
	dev := qdmi.NewDevice(qpu, nil)
	ghz := circuit.GHZ(6)
	var fJIT, fStatic float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := dev.Target()
		rj, err := transpile.Transpile(ghz, target, transpile.Options{Placement: transpile.PlaceFidelityAware})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := transpile.Transpile(ghz, target, transpile.Options{Placement: transpile.PlaceStatic})
		if err != nil {
			b.Fatal(err)
		}
		fJIT = transpile.ExpectedFidelity(rj.Circuit, target)
		fStatic = transpile.ExpectedFidelity(rs.Circuit, target)
	}
	b.ReportMetric(fJIT, "expected-fidelity-jit")
	b.ReportMetric(fStatic, "expected-fidelity-static")
}

// --- E9: §3.2 — GHZ ladder health check (the live benchmark). ---

func BenchmarkGHZHealthCheck(b *testing.B) {
	dev := qdmi.NewDevice(device.New20Q(9), nil)
	var f4 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hc, err := calib.RunHealthCheck(dev, []int{2, 4, 6}, 200)
		if err != nil {
			b.Fatal(err)
		}
		f4 = hc.Fidelities[4]
	}
	b.ReportMetric(f4, "ghz4-fidelity")
}

// --- E10: §4 user projects — VQE (H2) and QAOA-TSP end to end. ---

func BenchmarkVQEH2(b *testing.B) {
	var energy float64
	for i := 0; i < b.N; i++ {
		ansatz, np := hybrid.HardwareEfficientAnsatz(2, 1)
		v := &hybrid.VQE{
			Hamiltonian: hybrid.H2Molecule(),
			Ansatz:      ansatz,
			Runner:      &hybrid.ExactRunner{Seed: 3},
			Shots:       2000,
			Optimizer:   hybrid.DefaultSPSA(150, 5),
		}
		initial := make([]float64, np)
		for j := range initial {
			initial[j] = 0.1 * float64(j+1)
		}
		res, err := v.Run(initial)
		if err != nil {
			b.Fatal(err)
		}
		energy = res.Value
	}
	b.ReportMetric(energy, "vqe-energy-hartree")
	b.ReportMetric(hybrid.H2GroundStateEnergy(), "exact-energy-hartree")
}

func BenchmarkQAOATSP(b *testing.B) {
	dist := [][]float64{{0, 2, 9}, {2, 0, 6}, {9, 6, 0}}
	var bestLen, optLen float64
	for i := 0; i < b.N; i++ {
		tsp, err := hybrid.NewTSP(dist)
		if err != nil {
			b.Fatal(err)
		}
		qubo, err := tsp.QUBO()
		if err != nil {
			b.Fatal(err)
		}
		q := &hybrid.QAOA{
			Cost: qubo.ToIsing(), Layers: 2,
			Runner: &hybrid.ExactRunner{Seed: 99}, Shots: 2000,
			Optimizer: hybrid.DefaultSPSA(60, 31),
		}
		res, err := q.Run([]float64{0.1, 0.1, 0.2, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if tour, derr := tsp.DecodeTour(res.BestBits); derr == nil {
			bestLen, _ = tsp.TourLength(tour)
		}
		_, optLen, _ = tsp.BruteForceBestTour()
	}
	b.ReportMetric(bestLen, "qaoa-tour-length")
	b.ReportMetric(optLen, "optimal-tour-length")
}

// --- E12: §3.2 — uptime accounting over the long campaign. ---

func BenchmarkUptimeAccounting(b *testing.B) {
	var avail, calHours float64
	for i := 0; i < b.N; i++ {
		sim, err := ops.New(ops.Config{Days: 120, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		avail = rep.AvailableFraction
		calHours = rep.CalibrationHours
	}
	b.ReportMetric(100*avail, "availability-%")
	b.ReportMetric(calHours, "calibration-hours")
}

// --- Ablations on design choices (DESIGN.md §4). ---

func BenchmarkAblationPeepholeOptimizer(b *testing.B) {
	dev := qdmi.NewDevice(device.New20Q(15), nil)
	target := dev.Target()
	// A frontend-style circuit with redundancy the optimizer can remove.
	c := circuit.New(6, "redundant")
	for i := 0; i < 5; i++ {
		c.X(i).X(i).T(i).Tdag(i)
	}
	c.H(0)
	for q := 1; q < 6; q++ {
		c.CNOT(q-1, q)
	}
	var withOpt, withoutOpt int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on, err := transpile.Transpile(c, target, transpile.Options{Placement: transpile.PlaceStatic})
		if err != nil {
			b.Fatal(err)
		}
		off, err := transpile.Transpile(c, target, transpile.Options{Placement: transpile.PlaceStatic, SkipOptimize: true})
		if err != nil {
			b.Fatal(err)
		}
		withOpt, withoutOpt = on.Stats.OutputGates, off.Stats.OutputGates
	}
	b.ReportMetric(float64(withOpt), "gates-optimized")
	b.ReportMetric(float64(withoutOpt), "gates-unoptimized")
}

func BenchmarkAblationTrajectoryShotNoise(b *testing.B) {
	// Readout-fidelity estimation error vs shot count: how many shots the
	// health checks need for a stable number.
	qpu := device.New20Q(16)
	dev := qdmi.NewDevice(qpu, nil)
	res, err := transpile.Transpile(circuit.GHZ(4), dev.Target(), transpile.Options{
		Placement: transpile.PlaceFidelityAware,
	})
	if err != nil {
		b.Fatal(err)
	}
	var spread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := 1.0, 0.0
		for rep := 0; rep < 5; rep++ {
			out, err := qpu.Execute(res.Circuit, 200)
			if err != nil {
				b.Fatal(err)
			}
			f := 0.0
			for outcome, c := range out.Counts {
				placed0, placed1 := true, true
				for _, p := range res.FinalLayout[:4] {
					if outcome&(1<<uint(p)) != 0 {
						placed0 = false
					} else {
						placed1 = false
					}
				}
				if placed0 || placed1 {
					f += float64(c)
				}
			}
			f /= 200
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "fidelity-spread-at-200-shots")
}

func BenchmarkAblationRoutingStrategy(b *testing.B) {
	// A line with a detour loop, and a TLS parked on the direct coupler
	// between qubits 1 and 2: the hop-minimal route crosses it, the
	// fidelity-weighted route detours through the loop.
	//
	//   0 - 1 - 2 - 3 - 4
	//       |   |
	//       5 - 6
	target := &transpile.Target{
		NumQubits: 7,
		Edges: [][2]int{
			{0, 1}, {1, 2}, {2, 3}, {3, 4},
			{1, 5}, {5, 6}, {2, 6},
		},
		F1Q:   make([]float64, 7),
		FRead: make([]float64, 7),
		FCZ:   map[[2]int]float64{},
	}
	for i := range target.F1Q {
		target.F1Q[i] = 0.999
		target.FRead[i] = 0.98
	}
	for _, e := range target.Edges {
		target.FCZ[e] = 0.99
	}
	target.FCZ[[2]int{1, 2}] = 0.65
	// Logical CZ between far-apart physical qubits 0 and 3 forces routing.
	ghz := circuit.New(4, "far").H(0).CNOT(0, 3)
	var fHop, fFid float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop, err := transpile.Transpile(ghz, target, transpile.Options{
			Placement: transpile.PlaceStatic, Routing: transpile.RouteShortestHop,
		})
		if err != nil {
			b.Fatal(err)
		}
		fid, err := transpile.Transpile(ghz, target, transpile.Options{
			Placement: transpile.PlaceStatic, Routing: transpile.RouteFidelityWeighted,
		})
		if err != nil {
			b.Fatal(err)
		}
		fHop = transpile.ExpectedFidelity(hop.Circuit, target)
		fFid = transpile.ExpectedFidelity(fid.Circuit, target)
	}
	b.ReportMetric(fHop, "expected-fidelity-hop")
	b.ReportMetric(fFid, "expected-fidelity-weighted")
}

func BenchmarkMaintenancePlanning(b *testing.B) {
	var days float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := fleet.MaintenancePlan(730, 0)
		if err := fleet.ValidatePlan(plan, 730); err != nil {
			b.Fatal(err)
		}
		days = fleet.TotalMaintenanceDays(plan)
	}
	b.ReportMetric(days, "maintenance-days-2y")
}

// --- E13: dispatch-pipeline throughput and latency at 1/4/16 workers. ---
//
// The batch workload is the VQE measurement loop: a handful of distinct
// circuits resubmitted many times per round. Execution runs against the
// digital twin with a 2 ms control-electronics round-trip (the paced mode),
// so the benchmark is latency-bound the way the real integration is — the
// host CPU compiles while the QPU round-trip is in flight, which is exactly
// the overlap the worker pool exists to exploit. The calibration epoch's
// compile map collapses the repeated compilations to one per circuit per
// epoch.

func benchmarkDispatchThroughput(b *testing.B, workers int) {
	qpu := device.NewTwin20Q(30)
	qpu.SetExecLatency(2 * time.Millisecond)
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), workers); err != nil {
		b.Fatal(err)
	}
	defer f.Stop()
	circuits := []*circuit.Circuit{circuit.GHZ(3), circuit.GHZ(4), circuit.GHZ(5), circuit.GHZ(6)}
	const repeats = 16 // 64 jobs per round
	jobs := 0
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		ids := make([]int, 0, len(circuits)*repeats)
		for r := 0; r < repeats; r++ {
			for _, c := range circuits {
				id, err := f.Submit(qrm.Request{Circuit: c, Shots: 20, User: "bench"}, fleet.SubmitOptions{})
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			j, err := f.WaitContext(context.Background(), id)
			if err != nil {
				b.Fatal(err)
			}
			if j.Status != fleet.JobDone {
				b.Fatalf("job %d: %s (%s)", j.ID, j.Status, j.Error)
			}
		}
		jobs += len(ids)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	snap := f.Metrics().Devices[0].QRM
	b.ReportMetric(float64(jobs)/elapsed.Seconds(), "jobs/s")
	b.ReportMetric(snap.E2EMs.Quantile(0.50), "p50-ms")
	b.ReportMetric(snap.E2EMs.Quantile(0.95), "p95-ms")
	b.ReportMetric(100*snap.HitRatio(), "cache-hit-%")
}

func BenchmarkDispatchThroughput1Worker(b *testing.B)   { benchmarkDispatchThroughput(b, 1) }
func BenchmarkDispatchThroughput4Workers(b *testing.B)  { benchmarkDispatchThroughput(b, 4) }
func BenchmarkDispatchThroughput16Workers(b *testing.B) { benchmarkDispatchThroughput(b, 16) }

// --- Substrate microbenchmarks: the simulator itself. ---

func BenchmarkStatevectorGHZ20(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := circuit.GHZ(20).Simulate()
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

func BenchmarkTranspileGHZ20(b *testing.B) {
	dev := qdmi.NewDevice(device.New20Q(13), nil)
	target := dev.Target()
	ghz := circuit.GHZ(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transpile.Transpile(ghz, target, transpile.Options{
			Placement: transpile.PlaceFidelityAware,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoisyExecutionGHZ5x100(b *testing.B) {
	qpu := device.New20Q(14)
	dev := qdmi.NewDevice(qpu, nil)
	res, err := transpile.Transpile(circuit.GHZ(5), dev.Target(), transpile.Options{
		Placement: transpile.PlaceFidelityAware,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qpu.Execute(res.Circuit, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// Shot-branching at depth: GHZ(10) crosses rows of the grid (snake path)
// and a 4000-shot job shows the leaves/shots amortization at scale. The
// leaves-per-shot custom metric is the redundancy the tree removed.
func BenchmarkExecuteBranchTreeGHZ10(b *testing.B) {
	qpu := device.New20Q(42)
	ghz := device.NativeGHZSnake(10)
	const shots = 4000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qpu.Execute(ghz, shots); err != nil {
			b.Fatal(err)
		}
	}
	st := qpu.ExecStats()
	b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	b.ReportMetric(st.LeavesPerShot(), "leaves/shot")
}
