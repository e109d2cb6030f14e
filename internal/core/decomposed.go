package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// This file implements the Lagrangian dual decomposition solver for the
// C2/C3a problems — the approach the paper's analytical setting makes
// natural. Under the Poisson-arrival coupling, both objectives are SEPARABLE
// across tiers:
//
//	D(s) = Σ_j f_j(s_j)   (weighted delay contribution of tier j)
//	P(s) = Σ_j g_j(s_j)   (average power of tier j)
//
// so the Lagrangian min_s Σ_j [g_j(s_j) + β f_j(s_j)] splits into J
// independent one-dimensional minimizations (each convex: power is convex
// increasing, delay convex decreasing in the speed), and the single dual
// multiplier β is found by bisection on the constraint. The result is exact
// for the separable model and two to three orders of magnitude faster than
// the general-purpose augmented-Lagrangian path.
//
// Per-class bounds (C3b) keep the separability: class k's delay is
// Σ_j v_kj·R_kj(s_j), so the Lagrangian min_s Σ_j [g_j(s_j) +
// Σ_k β_k v_kj R_kj(s_j)] still splits into J one-dimensional problems; only
// the multiplier becomes a vector β ∈ ℝ₊^K. This file does not solve C3b
// yet — MinimizeEnergyPerClass uses the augmented Lagrangian, which also
// remains the path for tail (percentile) bounds, whose quantiles do not
// split across tiers.
//
// f_j and g_j are read from the cluster's compiled model (cluster.Model),
// tier by tier, so the dual evaluates the same availability-degraded
// delays and power as cluster.Evaluate.

// tierFns holds the per-tier delay and power functions of one cluster, read
// from its compiled model.
type tierFns struct {
	c   *cluster.Cluster // configured clone: the template of the Solution
	md  *cluster.Model
	ws  *cluster.Metrics // workspace: column tier holds tier's evaluation at last
	lo  []float64
	hi  []float64
	wBy []float64 // per-class weights, normalized to sum 1

	tier int     // tier of the last per-tier evaluation (-1: none)
	last float64 // its speed
	ok   bool    // whether it evaluated without error
}

// newTierFns prepares the decomposition for the cluster. Weights default to
// arrival-rate weighting.
func newTierFns(c *cluster.Cluster, weights []float64) (*tierFns, error) {
	md, err := cluster.Compile(c)
	if err != nil {
		return nil, err
	}
	work := c.Clone()
	lo, hi := work.SpeedBounds()
	w := weights
	if w == nil {
		w = work.Lambdas()
	}
	var sum float64
	for _, v := range w {
		if v < 0 {
			return nil, fmt.Errorf("core: negative weight %g", v)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: all-zero weights")
	}
	wn := make([]float64, len(w))
	for i, v := range w {
		wn[i] = v / sum
	}
	return &tierFns{c: work, md: md, ws: md.NewMetrics(), lo: lo, hi: hi, wBy: wn, tier: -1}, nil
}

// at evaluates tier j at speed s into the workspace, reusing the last
// evaluation when it was of the same tier at the same speed (the Lagrangian
// reads delay and power at every probe).
func (t *tierFns) at(j int, s float64) bool {
	//lint:waive floateq reason="memo key: only a bit-identical speed may reuse the last evaluation" until=2027-08-01
	if j != t.tier || s != t.last {
		t.tier, t.last = j, s
		t.ok = t.md.EvaluateTier(j, s, t.ws) == nil
	}
	return t.ok
}

// delayAt returns f_j(s): tier j's contribution to the weighted mean delay
// when running at speed s — Σ_k w_k · visits_{k,j} · resp_{k,j}(s).
func (t *tierFns) delayAt(j int, s float64) float64 {
	if !t.at(j, s) {
		return math.Inf(1)
	}
	var d float64
	for k, row := range t.ws.Breakdown.PerStation {
		visits := t.md.Visits(k, j)
		if visits == 0 {
			continue
		}
		if math.IsInf(row[j], 1) {
			return math.Inf(1)
		}
		d += t.wBy[k] * visits * row[j]
	}
	return d
}

// powerAt returns g_j(s): tier j's average power at speed s.
func (t *tierFns) powerAt(j int, s float64) float64 {
	if !t.at(j, s) {
		return math.Inf(1)
	}
	return t.md.TierPower(j, s, t.ws.Tiers[j].Utilization)
}

// argminLagrangian returns, for multiplier beta, the per-tier minimizers of
// g_j + β·f_j and the resulting total delay and power.
func (t *tierFns) argminLagrangian(beta float64) (speeds []float64, delay, pow float64) {
	j := len(t.c.Tiers)
	speeds = make([]float64, j)
	for i := 0; i < j; i++ {
		i := i
		obj := func(s float64) float64 {
			d := t.delayAt(i, s)
			if math.IsInf(d, 1) {
				return math.Inf(1)
			}
			return t.powerAt(i, s) + beta*d
		}
		s, _, _ := opt.GoldenSection(obj, t.lo[i], t.hi[i], 1e-10)
		speeds[i] = s
		delay += t.delayAt(i, s)
		pow += t.powerAt(i, s)
	}
	return speeds, delay, pow
}

// argminDelayLagrangian returns the per-tier minimizers of f_j + β·g_j (the
// C2 dual) and the resulting totals.
func (t *tierFns) argminDelayLagrangian(beta float64) (speeds []float64, delay, pow float64) {
	j := len(t.c.Tiers)
	speeds = make([]float64, j)
	for i := 0; i < j; i++ {
		i := i
		obj := func(s float64) float64 {
			d := t.delayAt(i, s)
			if math.IsInf(d, 1) {
				return math.Inf(1)
			}
			return d + beta*t.powerAt(i, s)
		}
		s, _, _ := opt.GoldenSection(obj, t.lo[i], t.hi[i], 1e-10)
		speeds[i] = s
		delay += t.delayAt(i, s)
		pow += t.powerAt(i, s)
	}
	return speeds, delay, pow
}

// MinimizeEnergyDual solves C3a by Lagrangian dual decomposition: bisect the
// multiplier β ≥ 0 so the delay of the per-tier Lagrangian minimizers meets
// the bound. Exact for the separable model; use MinimizeEnergy (augmented
// Lagrangian) for cross-checking or as a general fallback.
func MinimizeEnergyDual(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if !(o.MaxWeightedDelay > 0) {
		return nil, fmt.Errorf("core: delay bound %g must be positive", o.MaxWeightedDelay)
	}
	t, err := newTierFns(c, nil)
	if err != nil {
		return nil, err
	}
	bound := o.MaxWeightedDelay
	evals := 0
	var trace []opt.TraceEntry

	// β = 0 minimizes power alone (slowest speeds): if that already meets
	// the bound, it is the optimum.
	s0, d0, p0 := t.argminLagrangian(0)
	evals++
	trace = append(trace, opt.TraceEntry{F: p0, Violation: math.Max(0, d0-bound), Evals: evals})
	if d0 <= bound {
		return finishDual(t, s0, evals, powerObjective, trace)
	}
	// Feasibility: the fastest point gives the least delay.
	dMin := 0.0
	for j := range t.c.Tiers {
		dMin += t.delayAt(j, t.hi[j])
	}
	if dMin > bound {
		return nil, fmt.Errorf("core: delay bound %g s infeasible: best achievable is %g s", bound, dMin)
	}

	// Bracket β: delay(β) is non-increasing; grow until feasible.
	betaHi := 1.0
	for {
		_, d, _ := t.argminLagrangian(betaHi)
		evals++
		if d <= bound {
			break
		}
		betaHi *= 4
		if betaHi > 1e18 {
			return nil, fmt.Errorf("core: dual multiplier failed to bracket the bound")
		}
	}
	betaLo := 0.0
	var speeds []float64
	for i := 0; i < 100 && betaHi-betaLo > 1e-12*(1+betaHi); i++ {
		mid := (betaLo + betaHi) / 2
		s, d, p := t.argminLagrangian(mid)
		evals++
		trace = append(trace, opt.TraceEntry{
			Iter: i + 1, F: p, Violation: math.Max(0, d-bound),
			Step: betaHi - betaLo, Evals: evals,
		})
		if d <= bound {
			betaHi = mid
			speeds = s
		} else {
			betaLo = mid
		}
	}
	if speeds == nil {
		speeds, _, _ = t.argminLagrangian(betaHi)
		evals++
	}
	return finishDual(t, speeds, evals, powerObjective, trace)
}

// MinimizeDelayDual solves C2 by the symmetric dual: bisect β ≥ 0 so the
// power of the per-tier minimizers of f_j + β·g_j meets the energy budget.
func MinimizeDelayDual(c *cluster.Cluster, o DelayOptions) (*Solution, error) {
	if !(o.EnergyBudget > 0) {
		return nil, fmt.Errorf("core: energy budget %g must be positive", o.EnergyBudget)
	}
	if o.Weights != nil && len(o.Weights) != len(c.Classes) {
		return nil, fmt.Errorf("core: %d weights for %d classes", len(o.Weights), len(c.Classes))
	}
	t, err := newTierFns(c, o.Weights)
	if err != nil {
		return nil, err
	}
	budget := o.EnergyBudget
	evals := 0
	var trace []opt.TraceEntry

	// β = 0 minimizes delay alone (fastest speeds): if affordable, done.
	s0, d0, p0 := t.argminDelayLagrangian(0)
	evals++
	trace = append(trace, opt.TraceEntry{F: d0, Violation: math.Max(0, p0-budget), Evals: evals})
	if p0 <= budget {
		return finishDual(t, s0, evals, delayObjective, trace)
	}
	// Feasibility: the cheapest point.
	pMin := 0.0
	for j := range t.c.Tiers {
		pMin += t.powerAt(j, t.lo[j])
	}
	if pMin > budget {
		return nil, fmt.Errorf("core: energy budget %g W infeasible: minimum stable power is %g W", budget, pMin)
	}

	betaHi := 1e-6
	for {
		_, _, p := t.argminDelayLagrangian(betaHi)
		evals++
		if p <= budget {
			break
		}
		betaHi *= 4
		if betaHi > 1e18 {
			return nil, fmt.Errorf("core: dual multiplier failed to bracket the budget")
		}
	}
	betaLo := 0.0
	var speeds []float64
	for i := 0; i < 100 && betaHi-betaLo > 1e-12*(1+betaHi); i++ {
		mid := (betaLo + betaHi) / 2
		s, d, p := t.argminDelayLagrangian(mid)
		evals++
		trace = append(trace, opt.TraceEntry{
			Iter: i + 1, F: d, Violation: math.Max(0, p-budget),
			Step: betaHi - betaLo, Evals: evals,
		})
		if p <= budget {
			betaHi = mid
			speeds = s
		} else {
			betaLo = mid
		}
	}
	if speeds == nil {
		speeds, _, _ = t.argminDelayLagrangian(betaHi)
		evals++
	}
	return finishDual(t, speeds, evals, delayObjective, trace)
}

// dualObjective selects what the assembled Solution reports as Objective.
type dualObjective int

const (
	powerObjective dualObjective = iota // C3a: minimized power
	delayObjective                      // C2: minimized weighted delay
)

// finishDual assembles a Solution at the decomposed speeds. The objective is
// recomputed from the separable tier functions so custom weights are
// honoured; trace carries the dual bisection's convergence record.
func finishDual(t *tierFns, speeds []float64, evals int, kind dualObjective, trace []opt.TraceEntry) (*Solution, error) {
	out := t.c.Clone()
	if err := out.SetSpeeds(speeds); err != nil {
		return nil, err
	}
	m, err := cluster.Evaluate(out)
	if err != nil {
		return nil, err
	}
	obj := m.TotalPower
	if kind == delayObjective {
		obj = 0
		for j := range t.c.Tiers {
			obj += t.delayAt(j, speeds[j])
		}
	}
	return &Solution{
		Cluster: out, Metrics: m,
		Objective: obj,
		Result: opt.Result{
			X: speeds, F: obj, Iters: len(trace), Evals: evals,
			Converged: true, Trace: trace,
		},
	}, nil
}
