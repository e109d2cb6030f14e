package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/workload"
)

// offlineMix is one pass's solves per problem: 104 distinct solves, enough
// for the end-to-end 90th percentile.
var offlineMix = []struct {
	problem string
	n       int
}{{"c2", 36}, {"c3a", 36}, {"c3b", 16}, {"c4", 16}}

// planTol is the relative slack a returned plan may exceed its constraint
// by: the solvers stop at tolerances well inside it.
const planTol = 1e-3

// planCell is one grid point: a problem on a cluster at a drawn arrival
// scale, with its constraint drawn as a slack on a reference.
type planCell struct {
	problem string
	c       *cluster.Cluster
	limit   float64 // C2 power budget (W) or C3a weighted-delay bound (s)
	bounds  []float64
}

// planGrid draws the grid from the seed alone. Within each problem, arrival
// scale and slack are Latin-hypercube samples — one draw per stratum, the
// slack strata permuted — and the two cluster families alternate, so seeds
// differ in the points but not in how the grid covers the ranges.
func planGrid(seed uint64) []planCellSpec {
	rng := rand.New(rand.NewPCG(seed, 0x0ff1))
	var specs []planCellSpec
	for _, mix := range offlineMix {
		perm := rng.Perm(mix.n)
		for i := 0; i < mix.n; i++ {
			n := float64(mix.n)
			specs = append(specs, planCellSpec{
				problem: mix.problem,
				heavyDB: i%2 == 1,
				scale:   0.7 + 0.6*(float64(i)+rng.Float64())/n,
				slack:   (float64(perm[i]) + rng.Float64()) / n,
			})
		}
	}
	return specs
}

// planCellSpec is a grid point before its cluster is built; slack is a unit
// draw that each problem maps onto its own range.
type planCellSpec struct {
	problem string
	heavyDB bool
	scale   float64
	slack   float64
}

// offlinePlan is the slaplan path: C2 and C3a by dual decomposition, C3b by
// the augmented Lagrangian and C4 by greedy sizing plus speed tuning, each
// plan verified by Evaluate and CheckSLAs. C3b and C4 run at E23's quick
// budget, the autoscaler's: at the default budget the augmented
// Lagrangian's cost jumps between about 0.2 s and 1.2 s from one grid point
// to the next, so a pass's time would depend on which points a seed draws.
func offlinePlan(seed uint64, tr *tracer) (func(*tracer, *passOut), error) {
	specs := planGrid(seed)
	cells := make([]planCell, len(specs))
	for i, s := range specs {
		cell, err := buildCell(s, tr)
		if err != nil {
			return nil, fmt.Errorf("cell %d (%s): %w", i, s.problem, err)
		}
		cells[i] = cell
	}
	return func(tr *tracer, out *passOut) {
		var power, worst float64
		solved := 0
		for i, cell := range cells {
			tr.setOp(tr.newOp())
			out.attempted++
			sol, err := solveCell(cell, tr, out)
			if err != nil {
				out.fail("cell %d (%s): %v", i, cell.problem, err)
				continue
			}
			ratio, err := verifyPlan(cell, sol, tr, out)
			if err != nil {
				out.fail("cell %d (%s): %v", i, cell.problem, err)
				continue
			}
			worst = math.Max(worst, ratio)
			power += sol.Metrics.TotalPower
			solved++
			out.lap()
		}
		out.quality["mean_power_w"] = power / float64(max(1, solved))
		out.quality["worst_delay_ratio"] = worst
	}, nil
}

func buildCell(s planCellSpec, tr *tracer) (planCell, error) {
	m := tr.begin("workload.build_cluster")
	base := workload.Enterprise3Tier(1)
	if s.heavyDB {
		base = workload.Enterprise3TierHeavyDB(1)
	}
	c := workload.ScaleArrivals(base, s.scale)
	tr.end(m)
	if err := c.Validate(); err != nil {
		return planCell{}, err
	}
	cell := planCell{problem: s.problem, c: c}
	switch s.problem {
	case "c2", "c3a":
		m := tr.begin("cluster.evaluate")
		ref, err := cluster.Evaluate(c)
		tr.end(m)
		if err != nil {
			return planCell{}, err
		}
		if s.problem == "c2" {
			cell.limit = ref.TotalPower * (1 + 0.3*s.slack)
		} else {
			cell.limit = ref.WeightedDelay * (0.7 + 0.7*s.slack)
		}
	case "c3b", "c4":
		// The plan's SLAs are the constraint, so CheckSLAs verifies it.
		f := 0.8 + 0.4*s.slack
		for k := range c.Classes {
			c.Classes[k].SLA.MaxMeanDelay *= f
			cell.bounds = append(cell.bounds, c.Classes[k].SLA.MaxMeanDelay)
		}
	}
	return cell, nil
}

func solveCell(cell planCell, tr *tracer, out *passOut) (*core.Solution, error) {
	name := "core." + cell.problem
	m := tr.begin(name)
	var sol *core.Solution
	var err error
	switch cell.problem {
	case "c2":
		sol, err = core.MinimizeDelayDual(cell.c, core.DelayOptions{EnergyBudget: cell.limit})
	case "c3a":
		sol, err = core.MinimizeEnergyDual(cell.c, core.EnergyOptions{MaxWeightedDelay: cell.limit})
	case "c3b":
		sol, err = core.MinimizeEnergyPerClass(cell.c, core.EnergyOptions{
			MaxClassDelay: cell.bounds, Starts: quickBudget.starts, AugLag: quickBudget.al,
		})
	case "c4":
		sol, err = core.MinimizeCost(cell.c, core.CostOptions{Starts: quickBudget.starts, AugLag: quickBudget.al})
	}
	d := tr.end(m)
	out.step(ms(d))
	out.add(name+".solves", 1)
	if err != nil {
		out.add(name+".errors", 1)
		return nil, err
	}
	out.add(name+".evals", float64(sol.Result.Evals))
	out.dig.f(sol.Objective)
	out.dig.f(sol.Cluster.Speeds()...)
	for _, t := range sol.Cluster.Tiers {
		out.dig.i(int64(t.Servers))
	}
	out.dig.i(int64(sol.Result.Evals))
	return sol, nil
}

// verifyPlan re-evaluates the plan and checks its constraint; it returns
// the plan's delay over its delay bound (0 for C2, whose bound is power).
func verifyPlan(cell planCell, sol *core.Solution, tr *tracer, out *passOut) (float64, error) {
	m := tr.begin("cluster.evaluate")
	met, err := cluster.Evaluate(sol.Cluster)
	tr.end(m)
	if err != nil {
		return 0, err
	}
	m = tr.begin("cluster.check_slas")
	reps, err := cluster.CheckSLAs(sol.Cluster, met)
	tr.end(m)
	if err != nil {
		return 0, err
	}
	out.dig.f(met.TotalPower, met.WeightedDelay)
	out.dig.f(met.Delay...)
	for _, r := range reps {
		out.dig.f(r.MeanDelay, r.MeanBound)
	}
	switch cell.problem {
	case "c2":
		if met.TotalPower > cell.limit*(1+planTol) {
			return 0, fmt.Errorf("plan draws %.6g W over its %.6g W budget", met.TotalPower, cell.limit)
		}
		return 0, nil
	case "c3a":
		ratio := met.WeightedDelay / cell.limit
		if ratio > 1+planTol {
			return 0, fmt.Errorf("plan's weighted delay is %.6g× its bound", ratio)
		}
		return ratio, nil
	}
	worst := 0.0
	for _, r := range reps {
		ratio := r.MeanDelay / r.MeanBound
		if ratio > 1+planTol {
			out.add("cluster.check_slas.violations", 1)
			return 0, fmt.Errorf("class %s delay is %.6g× its SLA bound", r.Class, ratio)
		}
		worst = math.Max(worst, ratio)
	}
	return worst, nil
}
