package cluster

import (
	"fmt"
	"math"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// TierMetrics reports the analytical steady state of one tier.
type TierMetrics struct {
	Name        string
	Utilization float64 // per-server utilization ρ
	Power       power.Breakdown
}

// Metrics is the output of Evaluate: the paper's C1 quantities — per-class
// average end-to-end delay and average energy consumption — plus the
// aggregates the optimization problems constrain. It is also the workspace
// Model.EvaluateAt writes into: a caller that evaluates into a workspace owns
// it, and every evaluation overwrites it, so nothing may keep a workspace
// across evaluations (Evaluate always returns a fresh one).
type Metrics struct {
	// Delay[k] is class k's mean end-to-end response time (+Inf if any
	// tier on its route is saturated).
	Delay []float64
	// WeightedDelay is the arrival-rate-weighted mean delay over classes —
	// the paper's "all class" delay objective.
	WeightedDelay float64
	// EnergyPerRequest[k] is the dynamic energy one class-k request
	// induces along its route (Joules).
	EnergyPerRequest []float64
	// TotalPower is the cluster's average power draw (Watts): the paper's
	// "average energy consumption" per unit time; static + dynamic.
	TotalPower float64
	// StaticPower and DynamicPower decompose TotalPower.
	StaticPower, DynamicPower float64
	// EnergyPerJob is TotalPower divided by the aggregate throughput:
	// average energy the cluster spends per served request, amortizing
	// the idle floor (J/request). NaN with zero traffic.
	EnergyPerJob float64
	// Tiers holds per-tier utilization and power.
	Tiers []TierMetrics
	// Breakdown holds the queueing detail (per-class per-station waits).
	Breakdown *queueing.DelayBreakdown

	// A Metrics made by Model.NewMetrics is that model's workspace: model
	// identifies the owner, scratch holds per-tier moment vectors.
	model   *Model
	scratch []float64
}

// Stable reports whether every class has a finite delay.
func (m *Metrics) Stable() bool {
	for _, d := range m.Delay {
		if math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

// Evaluate computes the metrics of the cluster at its current speeds. It is
// the analytical core: delays from the priority queueing network, power from
// the per-tier utilization law. It compiles the cluster and evaluates the
// model once into a fresh Metrics; callers that evaluate many speed vectors
// should Compile once and call EvaluateAt.
func Evaluate(c *Cluster) (*Metrics, error) {
	md, err := Compile(c)
	if err != nil {
		return nil, err
	}
	m := md.NewMetrics()
	if err := md.EvaluateAt(c.Speeds(), m); err != nil {
		return nil, err
	}
	return m, nil
}

// DelayQuantile approximates the p-quantile of class k's end-to-end delay
// from the evaluated per-station means, via the hypoexponential stage
// approximation. It must be called with the Metrics produced by Evaluate on
// the same cluster.
func DelayQuantile(c *Cluster, m *Metrics, k int, p float64) (float64, error) {
	if m.Breakdown == nil {
		return 0, fmt.Errorf("cluster: metrics carry no breakdown")
	}
	if k < 0 || k >= len(c.Classes) {
		return 0, fmt.Errorf("cluster: class index %d out of range", k)
	}
	// Stage means: one exponential stage per expected visit. Deterministic
	// routes contribute one stage per visit; probabilistic routings use
	// each tier's expected total contribution v_j·T_j as a single stage —
	// a coarser approximation (the visit count is itself random), which is
	// why percentile SLAs under routing chains deserve the simulator
	// cross-check.
	var means []float64
	if c.Routing != nil && k < len(c.Routing) && c.Routing[k] != nil {
		for j, visits := range c.VisitRates(k) {
			if visits > 0 {
				means = append(means, visits*m.Breakdown.PerStation[k][j])
			}
		}
	} else {
		route := c.Route(k)
		for _, j := range route {
			means = append(means, m.Breakdown.PerStation[k][j])
		}
	}
	return queueing.EndToEndQuantile(means, p)
}

// SLAReport records, per class, whether each SLA guarantee holds under the
// analytical model.
type SLAReport struct {
	Class          string
	MeanDelay      float64
	MeanBound      float64 // 0 when absent
	MeanOK         bool
	TailDelay      float64 // achieved quantile at the SLA percentile (0 when absent)
	TailBound      float64
	TailPercentile float64
	TailOK         bool
}

// Satisfied reports whether every present guarantee holds.
func (r SLAReport) Satisfied() bool { return r.MeanOK && r.TailOK }

// CheckSLAs evaluates every class's SLA against the analytical model.
func CheckSLAs(c *Cluster, m *Metrics) ([]SLAReport, error) {
	reports := make([]SLAReport, len(c.Classes))
	for k, cl := range c.Classes {
		r := SLAReport{Class: cl.Name, MeanDelay: m.Delay[k], MeanOK: true, TailOK: true}
		if cl.SLA.HasMeanBound() {
			r.MeanBound = cl.SLA.MaxMeanDelay
			r.MeanOK = m.Delay[k] <= cl.SLA.MaxMeanDelay
		}
		if cl.SLA.HasPercentileBound() {
			q, err := DelayQuantile(c, m, k, cl.SLA.Percentile)
			if err != nil {
				return nil, err
			}
			r.TailDelay = q
			r.TailBound = cl.SLA.PercentileDelay
			r.TailPercentile = cl.SLA.Percentile
			r.TailOK = q <= cl.SLA.PercentileDelay
		}
		reports[k] = r
	}
	return reports, nil
}

// TotalCost returns the provisioning cost of the cluster: Σ tiers
// servers × cost-per-server. This is the objective of the paper's C4
// problem (minimize the total cost of allocated resources).
func TotalCost(c *Cluster) float64 {
	var cost float64
	for _, t := range c.Tiers {
		cost += float64(t.Servers) * t.CostPerServer
	}
	return cost
}

// Revenue returns the per-unit-time revenue Σ λ_k × price_k.
func Revenue(c *Cluster) float64 {
	var rev float64
	for _, cl := range c.Classes {
		rev += cl.Lambda * cl.SLA.PricePerRequest
	}
	return rev
}
