package cluster

import (
	"math"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// This file is the analytic model's evaluation path: every optimizer's inner
// loop runs through it. It allocates nothing — the hotalloc analyzer holds it
// to an empty escape allowlist and TestEvaluateAtZeroAlloc to zero
// allocations per call — so anything that allocates (compilation, workspaces,
// error values) lives in compile.go.

// Model is a Cluster compiled for repeated evaluation at varying tier speeds
// (see Compile). EvaluateAt computes the full C1 metrics at a speed vector;
// EvaluateTier computes one tier, for the per-tier dual solvers.
type Model struct {
	lam    []float64   // external per-class arrival rates
	lamTot float64     // Σ λ_k
	visits [][]float64 // visits[k][j]: class k's expected visits to tier j
	tiers  []modelTier
}

// modelTier is the speed-independent part of one tier.
type modelTier struct {
	name               string
	servers            int
	disc               queueing.Discipline
	pm                 power.Model
	avail              float64 // effective availability A ∈ (0, 1]
	minSpeed, maxSpeed float64
	arr                []float64 // arr[k] = λ_k · visits[k][j]
	work               []float64 // work[k]: class k's mean work at the tier
	shape              []queueing.Shape
}

// Visits returns class k's expected number of visits to tier j.
func (md *Model) Visits(k, j int) float64 { return md.visits[k][j] }

// EvaluateAt computes the metrics of the cluster at the given per-tier
// nominal speeds into m, a workspace from md.NewMetrics, and allocates
// nothing. A speed that is NaN, infinite, zero, negative or outside a
// configured [MinSpeed, MaxSpeed] range is an error, as is a point where the
// arithmetic breaks down; the contents of m are then unspecified.
//
// The arithmetic is the same, operation for operation, as the queueing
// network's (queueing.Network.EndToEndDelays for delays, the utilization law
// for power), so the results are bit-identical to it.
func (md *Model) EvaluateAt(speeds []float64, m *Metrics) error {
	if !md.owns(m) {
		return errWorkspace
	}
	if len(speeds) != len(md.tiers) {
		return speedCountError(len(speeds), len(md.tiers))
	}
	for j := range md.tiers {
		t, s := &md.tiers[j], speeds[j]
		if !(s > 0) || math.IsInf(s, 1) {
			return speedError(t.name, s)
		}
		if t.maxSpeed > 0 && (s < t.minSpeed || s > t.maxSpeed) {
			return speedRangeError(t.name, s, t.minSpeed, t.maxSpeed)
		}
	}
	for j := range md.tiers {
		if err := md.evalTier(j, speeds[j], m); err != nil {
			return err
		}
	}

	bd := m.Breakdown
	for k, v := range md.visits {
		var sum float64
		for j, visits := range v {
			if visits > 0 {
				sum += visits * bd.PerStation[k][j]
			}
		}
		m.Delay[k] = sum
	}
	m.WeightedDelay = queueing.MeanDelayAllClasses(m.Delay, md.lam)

	m.StaticPower, m.DynamicPower = 0, 0
	for j := range m.Tiers {
		m.StaticPower += m.Tiers[j].Power.Static
		m.DynamicPower += m.Tiers[j].Power.Dynamic
	}
	m.TotalPower = m.StaticPower + m.DynamicPower

	for k, v := range md.visits {
		var e float64
		for j, visits := range v {
			if visits <= 0 {
				continue
			}
			t, s := &md.tiers[j], speeds[j]
			e += visits * power.RequestEnergy(t.pm, s, t.work[k]/s)
		}
		m.EnergyPerRequest[k] = e
	}

	if md.lamTot > 0 {
		m.EnergyPerJob = m.TotalPower / md.lamTot
	} else {
		m.EnergyPerJob = math.NaN()
	}
	// A NaN delay, energy or power is a numeric breakdown at an extreme
	// speed; the caller gets an error instead. (The weighted delay and the
	// per-job energy stay NaN with zero traffic, by definition.)
	for k := range m.Delay {
		if math.IsNaN(m.Delay[k]) || math.IsNaN(m.EnergyPerRequest[k]) {
			return numericError()
		}
	}
	if math.IsNaN(m.TotalPower) {
		return numericError()
	}
	return nil
}

// EvaluateTier evaluates tier j alone at nominal speed s into the workspace
// m: column j of m.Breakdown (per-class waits and response times) and
// m.Tiers[j] (utilization and power breakdown). No other field is touched.
// It allocates nothing.
func (md *Model) EvaluateTier(j int, s float64, m *Metrics) error {
	if !md.owns(m) {
		return errWorkspace
	}
	if j < 0 || j >= len(md.tiers) {
		return tierIndexError(j, len(md.tiers))
	}
	if !(s > 0) || math.IsInf(s, 1) {
		return speedError(md.tiers[j].name, s)
	}
	return md.evalTier(j, s, m)
}

// TierPower returns tier j's average power at nominal speed s and
// per-up-server utilization rho (TierMetrics.Utilization):
//
//	c·(ρA·P_busy(s) + (1−ρA)·P_idle(s)) − (1−A)·c·P_idle(s),
//
// the fraction ρA of nominal servers busy and the idle floor of the down
// fraction 1−A removed. It equals the tier's Power.Total(); written this way
// it is bit-identical to power.StationPower when A = 1.
func (md *Model) TierPower(j int, s, rho float64) float64 {
	t := &md.tiers[j]
	return power.StationPower(t.pm, s, t.servers, rho*t.avail) -
		(1-t.avail)*float64(t.servers)*t.pm.IdlePower(s)
}

// evalTier is EvaluateTier without the argument checks.
func (md *Model) evalTier(j int, s float64, m *Metrics) error {
	t := &md.tiers[j]
	k := len(t.arr)
	mean, second := m.scratch[:k], m.scratch[k:2*k]
	wait, resp := m.scratch[2*k:3*k], m.scratch[3*k:4*k]
	// The station runs at the availability-degraded capacity s·A.
	eff := s * t.avail
	var u float64
	for c := range mean {
		mu := t.work[c] / eff
		if !(mu > 0) || math.IsInf(mu, 1) {
			return serviceError(t.name, c, mu)
		}
		mean[c], second[c] = t.shape[c].Moments(mu)
		u += t.arr[c] * mean[c]
	}
	if err := queueing.PriorityMMcInto(t.arr, mean, second, t.servers, t.disc, wait, resp); err != nil {
		return stationError(j, t.name, err)
	}
	for c := range resp {
		m.Breakdown.PerStation[c][j] = resp[c]
		m.Breakdown.Wait[c][j] = wait[c]
	}
	// rho is the per-up-server busy fraction. The fraction of nominal
	// servers busy is rho·A, which is what dynamic power scales with at the
	// raw operating speed; failed servers draw nothing, so the static floor
	// also shrinks by A.
	rho := u / float64(t.servers)
	br := power.StationBreakdown(t.pm, s, t.servers, rho*t.avail)
	br.Static *= t.avail
	m.Tiers[j] = TierMetrics{Name: t.name, Utilization: rho, Power: br}
	return nil
}

// owns reports whether m is a workspace of md's shape made by NewMetrics.
func (md *Model) owns(m *Metrics) bool {
	if m == nil || m.model != md || m.Breakdown == nil {
		return false
	}
	k, j := len(md.lam), len(md.tiers)
	bd := m.Breakdown
	if len(m.Delay) != k || len(m.EnergyPerRequest) != k || len(m.Tiers) != j ||
		len(m.scratch) != 4*k || len(bd.PerStation) != k || len(bd.Wait) != k {
		return false
	}
	for c := 0; c < k; c++ {
		if len(bd.PerStation[c]) != j || len(bd.Wait[c]) != j {
			return false
		}
	}
	return true
}
