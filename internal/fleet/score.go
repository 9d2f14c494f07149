package fleet

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/telemetry"
)

// Policy selects how the router ranks eligible devices.
type Policy string

const (
	// PolicyBestFidelity routes to the device with the highest estimated
	// fidelity for this circuit (queue depth breaks ties). The default.
	PolicyBestFidelity Policy = "best-fidelity"
	// PolicyLeastLoaded routes to the device with the lowest per-worker load
	// (fidelity estimate breaks ties).
	PolicyLeastLoaded Policy = "least-loaded"
	// PolicyRoundRobin cycles through eligible devices in registration
	// order.
	PolicyRoundRobin Policy = "round-robin"
)

// Validate rejects unknown policies.
func (p Policy) Validate() error {
	switch p {
	case PolicyBestFidelity, PolicyLeastLoaded, PolicyRoundRobin:
		return nil
	}
	return fmt.Errorf("fleet: unknown routing policy %q (want %s, %s or %s)",
		string(p), PolicyBestFidelity, PolicyLeastLoaded, PolicyRoundRobin)
}

// ParsePolicy parses a policy name ("" means the default, best-fidelity).
func ParsePolicy(s string) (Policy, error) {
	if s == "" {
		return PolicyBestFidelity, nil
	}
	p := Policy(s)
	if err := p.Validate(); err != nil {
		return "", err
	}
	return p, nil
}

// scoreHistogram buckets fidelity estimates: linear bins over (0, 1].
func scoreHistogram() *telemetry.Histogram {
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = 0.05 * float64(i+1)
	}
	h, err := telemetry.NewHistogram(bounds)
	if err != nil {
		panic(err) // static bounds cannot fail
	}
	return h
}

// eligibleLocked reports whether a device can run this job right now.
func (s *Scheduler) eligibleLocked(e *deviceEntry, j *Job) bool {
	if j.Pinned != "" && e.name != j.Pinned {
		return false
	}
	if e.state != DeviceActive {
		return false
	}
	return j.Request.Circuit.NumQubits <= e.dev.Properties().NumQubits
}

// pickLocked selects the best eligible device for j under its policy, as of
// now, returning the fidelity estimate the router computed for it; nil when
// no device is eligible. Round-robin's cursor advances when a device claims
// a job, not here.
func (s *Scheduler) pickLocked(j *Job) (*deviceEntry, float64) {
	var buf [8]*deviceEntry // a claim scan calls this per queued job: no allocation for a typical fleet
	eligible := buf[:0]
	for _, name := range s.order {
		if e := s.devices[name]; s.eligibleLocked(e, j) {
			eligible = append(eligible, e)
		}
	}
	if len(eligible) == 0 {
		return nil, 0
	}
	switch j.policy {
	case PolicyRoundRobin:
		e := eligible[s.rr%len(eligible)]
		return e, s.fidelityLocked(j, e)
	case PolicyLeastLoaded:
		best, bestLoad, bestFid := eligible[0], math.Inf(1), 0.0
		for _, e := range eligible {
			load := e.loadPerWorker()
			fid := s.fidelityLocked(j, e)
			if load < bestLoad || (load == bestLoad && fid > bestFid) {
				best, bestLoad, bestFid = e, load, fid
			}
		}
		return best, bestFid
	default: // PolicyBestFidelity
		best, bestScore, bestFid := eligible[0], math.Inf(-1), 0.0
		for _, e := range eligible {
			fid := s.fidelityLocked(j, e)
			// A small load penalty keeps a hot device from absorbing every
			// job when a near-equal sibling sits idle.
			score := fid - 0.002*e.loadPerWorker()
			if score > bestScore {
				best, bestScore, bestFid = e, score, fid
			}
		}
		return best, bestFid
	}
}

// loadPerWorker is claims in flight normalized by pool size.
func (e *deviceEntry) loadPerWorker() float64 {
	return float64(e.inflight) / float64(e.workers)
}

// scored is one device's fidelity estimate for a job, valid while the
// device's calibration epoch is still epoch.
type scored struct {
	epoch uint64
	fid   float64
	ok    bool
}

// fidelityLocked is e's fidelity estimate for j, computed at most once per
// published calibration epoch of e: a claim scan rereads the memo, and a
// drift tick or recalibration makes the next read score the job afresh.
func (s *Scheduler) fidelityLocked(j *Job, e *deviceEntry) float64 {
	if len(j.scores) <= e.idx {
		j.scores = append(j.scores, make([]scored, len(s.order)-len(j.scores))...)
	}
	ep := e.dev.QPU().Epoch()
	m := &j.scores[e.idx]
	if !m.ok || m.epoch != ep.Num {
		*m = scored{epoch: ep.Num, fid: e.estimateFidelity(ep, j.Request.Circuit), ok: true}
		s.scoreEvals++
	}
	return m.fid
}

// estimateFidelity is the router's deterministic fidelity model for running
// this circuit on this device, from the live calibration snapshot:
//
//	F ≈ f1q^(g1) · fcz^(g2·(1+3·overhead)) · fread^(width)
//
// where g1/g2 are the circuit's single-/two-qubit gate counts, and overhead
// is the expected SWAP insertions per two-qubit gate given the topology —
// computed from the mean pairwise coupler distance of the width-sized
// best-connected region of the device (the topology/width fit term: a
// circuit that fits snugly into a dense region routes with fewer SWAPs than
// one smeared across a sparse graph). The calibration means are the device's
// epoch's, computed once when it was published.
func (e *deviceEntry) estimateFidelity(ep *device.Epoch, c *circuit.Circuit) float64 {
	g2 := c.TwoQubitCount()
	g1 := 0
	for _, g := range c.Gates {
		if len(g.Qubits) == 1 && g.Name != circuit.OpBarrier {
			g1++
		}
	}
	overhead := 0.5 * math.Max(0, e.regionMeanDistance(c.NumQubits)-1)
	effCZ := float64(g2) * (1 + 3*overhead)
	f := math.Pow(ep.MeanF1Q, float64(g1)) *
		math.Pow(ep.MeanFCZ, effCZ) *
		math.Pow(ep.MeanFRead, float64(c.NumQubits))
	if f < 0 {
		return 0
	}
	return f
}

// regionMeanDistance is the mean pairwise coupler distance among the w
// best-connected qubits of the device (a BFS ball grown from the
// highest-degree qubit), memoized per width. It is the topology/width fit
// signal: 1.0 means every pair in the region is adjacent (no routing), and
// it grows as circuits outgrow the dense core of the device.
func (e *deviceEntry) regionMeanDistance(w int) float64 {
	if w < 2 {
		return 1
	}
	if d, ok := e.regionMemo[w]; ok {
		return d
	}
	topo := e.dev.QPU().Topology()
	n := topo.NumQubits()
	if w > n {
		w = n
	}
	center, bestDeg := 0, -1
	for q := 0; q < n; q++ {
		if deg := len(topo.Neighbors(q)); deg > bestDeg {
			center, bestDeg = q, deg
		}
	}
	// BFS ball of w qubits around the center.
	region := make([]int, 0, w)
	seen := map[int]bool{center: true}
	frontier := []int{center}
	region = append(region, center)
	for len(region) < w && len(frontier) > 0 {
		var next []int
		for _, q := range frontier {
			for _, nb := range topo.Neighbors(q) {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
					region = append(region, nb)
					if len(region) == w {
						break
					}
				}
			}
			if len(region) == w {
				break
			}
		}
		frontier = next
	}
	sum, pairs := 0.0, 0
	for i := 0; i < len(region); i++ {
		for k := i + 1; k < len(region); k++ {
			if d := topo.Distance(region[i], region[k]); d > 0 {
				sum += float64(d)
				pairs++
			}
		}
	}
	mean := 1.0
	if pairs > 0 {
		mean = sum / float64(pairs)
	}
	e.regionMemo[w] = mean
	return mean
}
