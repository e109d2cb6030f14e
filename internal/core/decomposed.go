package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// This file implements the Lagrangian dual decomposition solvers for C2,
// C3a and C3b — the approach the paper's analytical setting makes natural.
// Under the Poisson-arrival coupling, delay and power are SEPARABLE across
// tiers:
//
//	D_k(s) = Σ_j v_kj·R_kj(s_j)   (class k's delay: its visits × responses)
//	P(s)   = Σ_j g_j(s_j)         (average power of tier j)
//
// so a Lagrangian that prices delay with non-negative per-class weights w,
// min_s Σ_j [g_j(s_j) + Σ_k w_k v_kj R_kj(s_j)], splits into J independent
// one-dimensional minimizations, each convex (power is convex increasing,
// delay convex decreasing in the speed).
//
//   - C2 and C3a have one constraint, so one multiplier β scales
//     arrival-rate (or custom) weights, and bisection on β meets it.
//   - C3b has one mean-delay bound per class, so the multiplier is a vector
//     β ∈ ℝ₊^K with w_k = β_k/b_k. MinimizeEnergyPerClassDual finds it by
//     projected Newton (see classDual), checks a KKT certificate, and
//     falls back to the augmented Lagrangian if the check fails.
//
// The result is exact for the separable model and far cheaper than the
// general-purpose augmented-Lagrangian path, which remains the path for
// tail (percentile) bounds, whose quantiles do not split across tiers.
//
// The tier functions are read from the cluster's compiled model
// (cluster.Model), tier by tier, so the duals evaluate the same
// availability-degraded delays and power as cluster.Evaluate.

// tierFns holds the per-tier delay and power functions of one cluster, read
// from its compiled model.
type tierFns struct {
	c   *cluster.Cluster // configured clone: the template of the Solution
	md  *cluster.Model
	ws  *cluster.Metrics // workspace: column tier holds tier's evaluation at last
	lo  []float64
	hi  []float64
	wBy []float64 // C2/C3a per-class weights, normalized to sum 1

	tier int     // tier of the last per-tier evaluation (-1: none)
	last float64 // its speed
	ok   bool    // whether it evaluated without error
}

// newTierFns prepares the decomposition for the cluster.
func newTierFns(c *cluster.Cluster) (*tierFns, error) {
	md, err := cluster.Compile(c)
	if err != nil {
		return nil, err
	}
	work := c.Clone()
	lo, hi := work.SpeedBounds()
	return &tierFns{c: work, md: md, ws: md.NewMetrics(), lo: lo, hi: hi, tier: -1}, nil
}

// newWeightedTierFns prepares the single-multiplier decomposition (C2, C3a)
// with the given class weights, arrival-rate weights when nil.
func newWeightedTierFns(c *cluster.Cluster, weights []float64) (*tierFns, error) {
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	w := weights
	if w == nil {
		w = t.c.Lambdas()
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
	t.wBy = make([]float64, len(w))
	for i, v := range w {
		t.wBy[i] = v / sum
	}
	return t, nil
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

// delayAt returns tier j's contribution to the w-weighted class delay when
// running at speed s — Σ_k w_k · visits_{k,j} · resp_{k,j}(s).
func (t *tierFns) delayAt(j int, s float64, w []float64) float64 {
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
		d += w[k] * visits * row[j]
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
			d := t.delayAt(i, s, t.wBy)
			if math.IsInf(d, 1) {
				return math.Inf(1)
			}
			return t.powerAt(i, s) + beta*d
		}
		s, _, _ := opt.GoldenSection(obj, t.lo[i], t.hi[i], 1e-10)
		speeds[i] = s
		delay += t.delayAt(i, s, t.wBy)
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
			d := t.delayAt(i, s, t.wBy)
			if math.IsInf(d, 1) {
				return math.Inf(1)
			}
			return d + beta*t.powerAt(i, s)
		}
		s, _, _ := opt.GoldenSection(obj, t.lo[i], t.hi[i], 1e-10)
		speeds[i] = s
		delay += t.delayAt(i, s, t.wBy)
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
	t, err := newWeightedTierFns(c, nil)
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
		dMin += t.delayAt(j, t.hi[j], t.wBy)
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
	t, err := newWeightedTierFns(c, o.Weights)
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

// MinimizeEnergyPerClassDual solves C3b — minimum power under one mean-delay
// bound per class — by per-class dual decomposition: for multipliers β ≥ 0,
// each tier minimizes g_j(s) + Σ_k (β_k/b_k)·v_kj·R_kj(s) on its own, and a
// projected Newton method moves β until the minimizers meet every bound
// with complementary slackness. EnergyOptions.Multipliers warm-starts β.
//
// The answer is certified: every bound holds within 1e-6 (relative) and
// every class with a positive multiplier sits on its bound within 1e-6.
// If the certificate fails — from the warm start and then from a cold one —
// the solve falls back to MinimizeEnergyPerClass with the same options and
// returns its solution, whose Multipliers are nil. Bounds, their validation
// and the infeasibility error are MinimizeEnergyPerClass's. Result.Evals
// counts Lagrangian minimizations (J one-dimensional searches each), plus
// the fallback's model evaluations when it ran.
func MinimizeEnergyPerClassDual(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if err := checkClassBounds(c, o); err != nil {
		return nil, err
	}
	if o.Multipliers != nil && len(o.Multipliers) != len(c.Classes) {
		return nil, fmt.Errorf("core: %d multipliers for %d classes", len(o.Multipliers), len(c.Classes))
	}
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	fast := t.ws
	if t.md.EvaluateAt(t.hi, fast) != nil {
		fast = nil
	}
	if err := classFeasible(fast, o.MaxClassDelay); err != nil {
		return nil, err
	}
	bounds := make([]float64, len(o.MaxClassDelay))
	for k, b := range o.MaxClassDelay {
		if bounding(b) {
			bounds[k] = b
		}
	}
	d := newClassDual(t, bounds)
	if d.solve(o.Multipliers) {
		sol, err := finishDual(t, d.cur.speeds, d.evals, powerObjective, d.trace)
		if err != nil {
			return nil, err
		}
		sol.Multipliers = d.cur.beta
		return sol, nil
	}
	sol, err := MinimizeEnergyPerClass(c, o)
	if err != nil {
		return nil, err
	}
	sol.Result.Evals += d.evals
	return sol, nil
}

// Tolerances of the C3b dual, on the relative bound gaps (D_k−b_k)/b_k.
// The tier searches place each speed within about 10⁻¹⁰ of the minimizer,
// which leaves the gaps about 10⁻⁸ of noise; Newton's target sits above it.
const (
	classDualTol  = 1e-7 // Newton's target
	classDualCert = 1e-6 // the certificate a returned plan must meet
)

// classDual is the state of one C3b dual solve.
type classDual struct {
	t      *tierFns
	bounds []float64 // per class, 0 when unconstrained
	scale  float64   // power at the slowest speeds: the cold start's unit of β
	w      []float64 // tier-problem weights β_k/b_k
	c      []float64 // per-class scales −∂gap_k/∂β_k
	cur    dualPoint // the iterate
	trial  dualPoint // the line search's candidate
	jac    [][]float64
	dir    []float64   // Newton step
	lhs    [][]float64 // Newton system scratch, K×K
	grad   []float64   // ∂gap_k/∂s_j of one tier (Jacobian scratch)
	rp, rm []float64   // per-class responses at s±h (Jacobian scratch)
	evals  int
	trace  []opt.TraceEntry
}

// dualPoint is a multiplier vector with its Lagrangian minimizers.
type dualPoint struct {
	beta   []float64
	speeds []float64
	gap    []float64 // (D_k−b_k)/b_k at speeds; 0 for an unbounded class
	power  float64
	dual   float64 // the dual function q(β) = P(speeds) + Σ_k β_k·gap_k
}

func newDualPoint(k, j int) dualPoint {
	return dualPoint{beta: make([]float64, k), speeds: make([]float64, j), gap: make([]float64, k)}
}

func newClassDual(t *tierFns, bounds []float64) *classDual {
	k, j := len(bounds), len(t.lo)
	d := &classDual{
		t: t, bounds: bounds,
		w: make([]float64, k), c: make([]float64, k),
		cur: newDualPoint(k, j), trial: newDualPoint(k, j),
		jac: make([][]float64, k), lhs: make([][]float64, k),
		dir: make([]float64, k), grad: make([]float64, k),
		rp: make([]float64, k), rm: make([]float64, k),
	}
	for i := range d.jac {
		d.jac[i] = make([]float64, k)
		d.lhs[i] = make([]float64, k)
	}
	for i := range t.lo {
		d.scale += t.powerAt(i, t.lo[i])
	}
	if !(d.scale > 0) || math.IsInf(d.scale, 1) {
		d.scale = 1
	}
	return d
}

// solve runs the dual from the warm start (if it has a usable entry), then
// from a cold start, and reports whether d.cur holds a certified optimum.
func (d *classDual) solve(warm []float64) bool {
	if len(warm) > 0 {
		usable := false
		for k, b := range warm {
			d.cur.beta[k] = 0
			if d.bounds[k] > 0 && b > 0 && !math.IsInf(b, 1) {
				d.cur.beta[k] = b
				usable = true
			}
		}
		if usable {
			d.eval(&d.cur)
			if d.newton() {
				return true
			}
		}
	}
	return d.coldStart() && d.newton()
}

// coldStart sets d.cur to β = 0 if that is feasible (then it is optimal:
// the slowest speeds) and otherwise to the common multiplier β = τ·1 at
// which the most violated class just meets its bound, within 10%. Newton
// has no slope to follow from β = 0: every tier sits at its speed floor,
// where the minimizers do not move with β.
func (d *classDual) coldStart() bool {
	d.setBeta(&d.cur, 0)
	d.eval(&d.cur)
	if d.worstGap(&d.cur) <= 0 {
		return true
	}
	lo, hi := 0.0, 1e-3*d.scale
	for {
		d.setBeta(&d.cur, hi)
		d.eval(&d.cur)
		if d.worstGap(&d.cur) <= 0 {
			break
		}
		lo, hi = hi, 4*hi
		if hi > 1e12*d.scale {
			return false
		}
	}
	for hi > 1.1*lo && lo > 0 {
		mid := math.Sqrt(lo * hi)
		d.setBeta(&d.trial, mid)
		d.eval(&d.trial)
		if d.worstGap(&d.trial) <= 0 {
			hi = mid
			d.cur, d.trial = d.trial, d.cur
		} else {
			lo = mid
		}
	}
	return true
}

// setBeta sets every bounded class's multiplier of p to v.
func (d *classDual) setBeta(p *dualPoint, v float64) {
	for k, b := range d.bounds {
		p.beta[k] = 0
		if b > 0 {
			p.beta[k] = v
		}
	}
}

// worstGap returns the largest relative bound gap of p (+Inf if any is NaN).
func (d *classDual) worstGap(p *dualPoint) float64 {
	worst := math.Inf(-1)
	for _, g := range p.gap {
		if math.IsNaN(g) {
			return math.Inf(1)
		}
		worst = math.Max(worst, g)
	}
	return worst
}

// certified reports whether p meets the KKT conditions within tol: every
// bound holds and every class with a positive multiplier is binding.
func (d *classDual) certified(p *dualPoint, tol float64) bool {
	for k, b := range d.bounds {
		if b == 0 {
			continue
		}
		if !(p.gap[k] <= tol) || (p.beta[k] > 0 && p.gap[k] < -tol) {
			return false
		}
	}
	return true
}

// setWeights sets the tier problems' weights for multipliers beta.
func (d *classDual) setWeights(beta []float64) {
	for k, b := range d.bounds {
		d.w[k] = 0
		if b > 0 {
			d.w[k] = beta[k] / b
		}
	}
}

// eval minimizes the Lagrangian at p.beta tier by tier and records the
// minimizers, their power and every class's relative bound gap.
func (d *classDual) eval(p *dualPoint) {
	t := d.t
	d.setWeights(p.beta)
	d.evals++
	p.power = 0
	for j := range p.speeds {
		obj := func(s float64) float64 {
			dl := t.delayAt(j, s, d.w)
			if math.IsInf(dl, 1) {
				return math.Inf(1)
			}
			return t.powerAt(j, s) + dl
		}
		p.speeds[j], _, _ = opt.GoldenSection(obj, t.lo[j], t.hi[j], 1e-10)
	}
	// Each tier writes only its own workspace column, so after this loop
	// the workspace holds every tier at its minimizer.
	ok := true
	for j, s := range p.speeds {
		ok = t.at(j, s) && ok
		p.power += t.powerAt(j, s)
	}
	resp := t.ws.Breakdown.PerStation
	for k, b := range d.bounds {
		p.gap[k] = 0
		if b == 0 {
			continue
		}
		if !ok {
			p.gap[k] = math.Inf(1)
			continue
		}
		// Summed in EvaluateAt's order, so D_k is bit-identical to it.
		var sum float64
		for j := range p.speeds {
			if v := t.md.Visits(k, j); v > 0 {
				sum += v * resp[k][j]
			}
		}
		p.gap[k] = (sum - b) / b
	}
	var viol float64
	p.dual = p.power
	for k, g := range p.gap {
		viol = math.Max(viol, g)
		if p.beta[k] > 0 {
			p.dual += p.beta[k] * g
		}
	}
	if !ok || math.IsNaN(p.dual) {
		p.dual = math.Inf(-1) // never accepted over an evaluated point
	}
	d.trace = append(d.trace, opt.TraceEntry{Iter: len(d.trace), F: p.power, Violation: viol, Evals: d.evals})
}

// jacobian sets d.jac to ∂gap/∂β at p by the implicit function theorem on
// the tier problems: an interior minimizer s_j of φ_j = g_j + Σ_k w_k v_kj
// R_kj moves as ds_j/dβ_k = −a_jk/φ_j″ with a_jk = v_kj R′_kj(s_j)/b_k,
// so ∂gap_m/∂β_k = −Σ_j a_jm·a_jk/φ_j″ — symmetric and negative
// semidefinite. A tier at an end of its speed range does not move. The
// derivatives are central differences at s_j ± 10⁻⁴·s_j.
func (d *classDual) jacobian(p *dualPoint) {
	t := d.t
	d.setWeights(p.beta)
	for _, row := range d.jac {
		clear(row)
	}
	resp := t.ws.Breakdown.PerStation
	for j, s := range p.speeds {
		if s-t.lo[j] <= 1e-8*s || t.hi[j]-s <= 1e-8*s {
			continue
		}
		h := 1e-4 * s
		lag := func(x float64, r []float64) float64 {
			f := t.powerAt(j, x) + t.delayAt(j, x, d.w)
			for k := range r {
				r[k] = resp[k][j]
			}
			return f
		}
		fp := lag(s+h, d.rp)
		fm := lag(s-h, d.rm)
		f0 := t.powerAt(j, s) + t.delayAt(j, s, d.w)
		curv := (fp - 2*f0 + fm) / (h * h)
		if !(curv > 0) || math.IsInf(curv, 1) {
			continue
		}
		for k, b := range d.bounds {
			d.grad[k] = 0
			if v := t.md.Visits(k, j); b > 0 && v > 0 {
				d.grad[k] = v * (d.rp[k] - d.rm[k]) / (2 * h) / b
			}
		}
		for m, am := range d.grad {
			for k, ak := range d.grad {
				d.jac[m][k] -= am * ak / curv
			}
		}
	}
}

// direction sets d.dir to the Newton step on the Fischer–Burmeister
// equations Φ_k = φ(c_k·β_k, −gap_k) = 0 of the bounded classes, where
// c_k = −∂gap_k/∂β_k puts β_k in gap units: c_k·β_k is how much class k's
// delay would rise if its multiplier went to zero, so φ judges a class
// slack when its multiplier could not close its gap. Row k of the system is
// α_k·c_k·e_k − γ_k·∂gap_k/∂β with α_k = ∂φ/∂a and γ_k = ∂φ/∂b: a binding
// class with β_k > 0 (α = 0, γ = 1) gets a plain Newton row, a slack class
// at β_k = 0 (α = 1, γ = 0) keeps β_k = 0, a slack class with β_k > 0 is
// pulled to 0 and a violated one at β_k = 0 pushed up — the free set
// {k : β_k > 0 or gap_k > 0} is chosen smoothly rather than guessed.
//
// A class no interior tier serves (c_k = 0: every tier on its route is at
// an end of its speed range) has no Newton row; its multiplier is
// bracketed instead: ×4 if it is violated, ÷4 if it is slack. It reports
// false if the system cannot be solved.
func (d *classDual) direction(p *dualPoint) bool {
	d.jacobian(p)
	a, x := d.lhs, d.dir
	for k, b := range d.bounds {
		clear(a[k])
		a[k][k], x[k], d.c[k] = 1, 0, 0
		if b == 0 {
			continue
		}
		c := -d.jac[k][k]
		if !(c > 0) {
			switch {
			case !(p.gap[k] <= 0):
				x[k] = 3 * math.Max(p.beta[k], 1e-3*d.scale)
			case p.beta[k] > 0:
				x[k] = -0.75 * p.beta[k]
			}
			continue
		}
		d.c[k] = c
		u, v := c*p.beta[k], -p.gap[k]
		r := math.Hypot(u, v)
		alpha, gamma := 1-1/math.Sqrt2, 1-1/math.Sqrt2 // an element at the kink
		if r > 0 {
			alpha, gamma = 1-u/r, 1-v/r
		}
		for m := range a[k] {
			a[k][m] = -gamma * d.jac[k][m]
		}
		a[k][k] += alpha * c
		x[k] = -(u + v - r)
	}
	if opt.SolveDense(a, x, math.SmallestNonzeroFloat64) != nil {
		return false
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// newton iterates projected Newton steps from d.cur until the iterate
// meets the target tolerance or stops improving, and reports whether d.cur
// is certified. Each step is accepted by a backtracking (Armijo) line
// search on the dual function q, which is concave in β with gradient gap:
// every accepted step raises q, so the iterates cannot cycle, even where
// tiers pinned at a speed limit make q piecewise.
func (d *classDual) newton() bool {
	for it := 0; it < 30 && !d.certified(&d.cur, classDualTol); it++ {
		if !d.direction(&d.cur) {
			break
		}
		accepted := false
		for step := 1.0; step >= 1.0/1024; step /= 2 {
			var slope float64
			for k, b := range d.cur.beta {
				// A multiplier this small moves no tier; it is zero.
				if d.trial.beta[k] = b + step*d.dir[k]; !(d.trial.beta[k] > 1e-12*d.scale) {
					d.trial.beta[k] = 0
				}
				slope += d.cur.gap[k] * (d.trial.beta[k] - b)
			}
			d.eval(&d.trial)
			if d.trial.dual >= d.cur.dual+1e-4*slope {
				d.cur, d.trial = d.trial, d.cur
				accepted = true
				break
			}
		}
		if !accepted {
			break
		}
	}
	return d.certified(&d.cur, classDualCert)
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
	m := t.md.NewMetrics()
	if err := t.md.EvaluateAt(speeds, m); err != nil {
		return nil, err
	}
	obj := m.TotalPower
	if kind == delayObjective {
		obj = 0
		for j := range t.c.Tiers {
			obj += t.delayAt(j, speeds[j], t.wBy)
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
