package cluster

import (
	"errors"
	"fmt"

	"clusterq/internal/queueing"
)

// Compile validates the cluster once and fixes everything its analytic model
// does not need a speed for: the per-class arrival rates, every class's
// visit rates (routes and routing chains solved once), the per-tier class
// arrival vectors, server counts, disciplines, power models, availabilities,
// speed ranges and the service-distribution shape of every class at every
// tier. The model is immutable and shares nothing mutable with c, so later
// changes to c do not reach it and one model may serve several goroutines,
// each with its own workspace (NewMetrics).
func Compile(c *Cluster) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	md := &Model{
		lam:    c.Lambdas(),
		lamTot: c.TotalLambda(),
		visits: make([][]float64, len(c.Classes)),
		tiers:  make([]modelTier, len(c.Tiers)),
	}
	for k := range c.Classes {
		md.visits[k] = c.VisitRates(k)
	}
	arr := tierArrivals(md.lam, md.visits, len(c.Tiers))
	for j, t := range c.Tiers {
		mt := modelTier{
			name: t.Name, servers: t.Servers, disc: t.Discipline, pm: t.Power,
			avail: t.EffectiveAvailability(), minSpeed: t.MinSpeed, maxSpeed: t.MaxSpeed,
			arr:   arr[j],
			work:  make([]float64, len(t.Demands)),
			shape: make([]queueing.Shape, len(t.Demands)),
		}
		for k, d := range t.Demands {
			sh, err := queueing.ShapeForCV2(d.CV2)
			if err != nil {
				return nil, fmt.Errorf("cluster: tier %q class %d: %w", t.Name, k, err)
			}
			mt.work[k], mt.shape[k] = d.Work, sh
		}
		md.tiers[j] = mt
	}
	return md, nil
}

// NewMetrics returns a workspace sized for the model, for EvaluateAt and
// EvaluateTier to write into. Its Delay slice is its Breakdown.EndToEnd.
func (md *Model) NewMetrics() *Metrics {
	k, j := len(md.lam), len(md.tiers)
	bd := &queueing.DelayBreakdown{
		PerStation: make([][]float64, k),
		Wait:       make([][]float64, k),
		EndToEnd:   make([]float64, k),
	}
	for c := range bd.PerStation {
		bd.PerStation[c] = make([]float64, j)
		bd.Wait[c] = make([]float64, j)
	}
	return &Metrics{
		Delay:            bd.EndToEnd,
		EnergyPerRequest: make([]float64, k),
		Tiers:            make([]TierMetrics, j),
		Breakdown:        bd,
		model:            md,
		scratch:          make([]float64, 4*k),
	}
}

// TierArrivals returns, for every tier j, the per-class arrival vector the
// tier sees: λ_k times class k's expected visits to j. Each class's visit
// rates are computed once.
func (c *Cluster) TierArrivals() [][]float64 {
	visits := make([][]float64, len(c.Classes))
	for k := range c.Classes {
		visits[k] = c.VisitRates(k)
	}
	return tierArrivals(c.Lambdas(), visits, len(c.Tiers))
}

func tierArrivals(lam []float64, visits [][]float64, tiers int) [][]float64 {
	arr := make([][]float64, tiers)
	for j := range arr {
		arr[j] = make([]float64, len(lam))
		for k := range lam {
			arr[j][k] = lam[k] * visits[k][j]
		}
	}
	return arr
}

// The evaluation path reports its errors through these constructors. They
// are kept out of line (go:noinline) so the allocation of building an error
// stays here, off the allocation-free evaluation path in model.go; only a
// failing evaluation pays for it.

var errWorkspace = errors.New("cluster: metrics workspace was not made by this model's NewMetrics")

//go:noinline
func speedCountError(got, want int) error {
	return fmt.Errorf("cluster: %d speeds for %d tiers", got, want)
}

//go:noinline
func tierIndexError(j, tiers int) error {
	return fmt.Errorf("cluster: tier index %d out of range [0,%d)", j, tiers)
}

//go:noinline
func speedError(name string, s float64) error {
	return fmt.Errorf("cluster: tier %q speed %g must be positive and finite", name, s)
}

//go:noinline
func speedRangeError(name string, s, lo, hi float64) error {
	return fmt.Errorf("cluster: tier %q speed %g outside [%g,%g]", name, s, lo, hi)
}

//go:noinline
func serviceError(name string, k int, mean float64) error {
	return fmt.Errorf("cluster: tier %q class %d mean service time %g must be positive and finite", name, k, mean)
}

//go:noinline
func stationError(j int, name string, err error) error {
	return fmt.Errorf("station %d (%s): %w", j, name, err)
}

//go:noinline
func numericError() error {
	return errors.New("cluster: model arithmetic broke down (NaN) at these speeds")
}
