package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// EnergyOptions configures MinimizeEnergy and MinimizeEnergyPerClass
// (problems C3a and C3b).
type EnergyOptions struct {
	// MaxWeightedDelay bounds the aggregate (arrival-rate-weighted)
	// average end-to-end delay; used by MinimizeEnergy.
	MaxWeightedDelay float64
	// MaxClassDelay[k] bounds class k's average end-to-end delay; used by
	// MinimizeEnergyPerClass and MinimizeEnergyPerClassDual. Entries ≤ 0
	// or +Inf mean "unconstrained"; a NaN entry is an error.
	MaxClassDelay []float64
	// Multipliers optionally warm-starts MinimizeEnergyPerClassDual with
	// one multiplier per class, typically the Multipliers of a previous
	// Solution for a nearby load. It is a hint: it changes the solve's
	// cost, never its optimum beyond tolerance. Non-finite, negative and
	// unbounded-class entries are ignored; nil or all-zero is a cold start.
	Multipliers []float64
	// Starts is the number of multi-start points (default 4).
	Starts int
	// Solver options for the inner augmented-Lagrangian solves.
	AugLag opt.AugLagOptions
}

// MinimizeEnergy solves the paper's C3a problem: choose per-tier speeds to
// minimize the cluster's average power subject to the all-class average
// end-to-end delay staying within the bound.
//
//	min_s  P(s)
//	s.t.   D̄(s) ≤ MaxWeightedDelay,  s ∈ [s_min, s_max]
//
// Power increases and delay decreases in every speed, so the optimum runs
// the cluster as slowly as the delay bound allows.
func MinimizeEnergy(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if !(o.MaxWeightedDelay > 0) {
		return nil, fmt.Errorf("core: delay bound %g must be positive", o.MaxWeightedDelay)
	}
	ev, err := newEvaluator(c)
	if err != nil {
		return nil, err
	}
	box, err := ev.box()
	if err != nil {
		return nil, err
	}
	// Feasibility: the fastest configuration gives the smallest achievable
	// delay.
	if dMin := ev.weightedDelay(box.Hi, nil); dMin > o.MaxWeightedDelay {
		return nil, fmt.Errorf("core: delay bound %g s infeasible: best achievable is %g s",
			o.MaxWeightedDelay, dMin)
	}

	objective := func(s []float64) float64 { return ev.power(s) }
	bound := func(s []float64) float64 {
		d := ev.weightedDelay(s, nil)
		if math.IsInf(d, 1) {
			return math.Inf(1)
		}
		return d - o.MaxWeightedDelay
	}

	starts := o.Starts
	if starts <= 0 {
		starts = 4
	}
	solve := func(x0 []float64) opt.Result {
		return opt.AugmentedLagrangian(objective, []opt.Constraint{bound}, box, x0, o.AugLag)
	}
	r := opt.MultiStart(solve, box, starts)
	if math.IsInf(r.F, 1) {
		return nil, fmt.Errorf("core: no feasible configuration found")
	}
	if v := bound(r.X); v > 1e-3*(1+o.MaxWeightedDelay) {
		return nil, fmt.Errorf("core: solver left delay bound violated by %g s", v)
	}
	return ev.finish(r.X, r.F, r)
}

// MinimizeEnergyPerClass solves the paper's C3b problem: minimize power with
// an individual delay bound per class (entries ≤ 0 or +Inf are
// unconstrained).
//
//	min_s  P(s)
//	s.t.   D_k(s) ≤ MaxClassDelay[k] for every bounded class k.
//
// Per-class bounds interact with priority: tight bounds on low-priority
// classes are the expensive ones, since the only lever that helps them — more
// speed — also overshoots the already-easy high-priority bounds.
func MinimizeEnergyPerClass(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if err := checkClassBounds(c, o); err != nil {
		return nil, err
	}
	ev, err := newEvaluator(c)
	if err != nil {
		return nil, err
	}
	box, err := ev.box()
	if err != nil {
		return nil, err
	}
	// Feasibility at maximum speed.
	if err := classFeasible(ev.metricsAt(box.Hi), o.MaxClassDelay); err != nil {
		return nil, err
	}

	objective := func(s []float64) float64 { return ev.power(s) }
	var gs []opt.Constraint
	for k, b := range o.MaxClassDelay {
		if !bounding(b) {
			continue
		}
		k, b := k, b
		gs = append(gs, func(s []float64) float64 {
			m := ev.metricsAt(s)
			if m == nil || math.IsInf(m.Delay[k], 1) {
				return math.Inf(1)
			}
			// Normalize so the multiplier scale is comparable across
			// classes with very different bounds.
			return (m.Delay[k] - b) / b
		})
	}

	starts := o.Starts
	if starts <= 0 {
		starts = 4
	}
	solve := func(x0 []float64) opt.Result {
		return opt.AugmentedLagrangian(objective, gs, box, x0, o.AugLag)
	}
	r := opt.MultiStart(solve, box, starts)
	if math.IsInf(r.F, 1) {
		return nil, fmt.Errorf("core: no feasible configuration found")
	}
	for i, g := range gs {
		if v := g(r.X); v > 1e-3 {
			return nil, fmt.Errorf("core: solver left constraint %d violated by %g (relative)", i, v)
		}
	}
	return ev.finish(r.X, r.F, r)
}

// checkClassBounds validates the per-class delay bounds of a C3b problem: one
// per class, none NaN (the error names the class), and at least one that
// bounds (see bounding).
func checkClassBounds(c *cluster.Cluster, o EnergyOptions) error {
	if len(o.MaxClassDelay) != len(c.Classes) {
		return fmt.Errorf("core: %d delay bounds for %d classes", len(o.MaxClassDelay), len(c.Classes))
	}
	anyBound := false
	for k, b := range o.MaxClassDelay {
		if math.IsNaN(b) {
			return fmt.Errorf("core: class %d delay bound is NaN", k)
		}
		anyBound = anyBound || bounding(b)
	}
	if !anyBound {
		return fmt.Errorf("core: no positive delay bound given")
	}
	return nil
}

// bounding reports whether a per-class delay bound constrains its class:
// ≤ 0 and +Inf mean unconstrained.
func bounding(b float64) bool { return b > 0 && !math.IsInf(b, 1) }

// classFeasible checks the C3b bounds against the metrics at maximum speeds — the least delay every class can get. A nil
// m means the model rejected the maximum speeds.
func classFeasible(m *cluster.Metrics, bounds []float64) error {
	if m == nil {
		return fmt.Errorf("core: cluster invalid at maximum speeds")
	}
	for k, b := range bounds {
		if bounding(b) && m.Delay[k] > b {
			return fmt.Errorf("core: class %d bound %g s infeasible: best achievable is %g s",
				k, b, m.Delay[k])
		}
	}
	return nil
}

// BindingClasses reports which bounded classes sit within tol (relative) of
// their delay bound in the solution — the classes whose SLAs actually cost
// energy.
func BindingClasses(sol *Solution, bounds []float64, tol float64) []int {
	if tol <= 0 {
		tol = 0.02
	}
	var binding []int
	for k, b := range bounds {
		if b <= 0 || k >= len(sol.Metrics.Delay) {
			continue
		}
		if sol.Metrics.Delay[k] >= b*(1-tol) {
			binding = append(binding, k)
		}
	}
	return binding
}
