// Package core implements the paper's contributions on top of the cluster
// model:
//
//   - MinimizeDelay (C2): minimize the average end-to-end delay subject to an
//     average energy (power) budget, by optimizing per-tier DVFS speeds.
//   - MinimizeEnergy (C3a): minimize the average power subject to a bound on
//     the aggregate (all-class) average end-to-end delay.
//   - MinimizeEnergyPerClass (C3b): the same with per-class delay bounds.
//     MinimizeEnergyPerClassDual solves it by per-class dual decomposition.
//   - MinimizeCost (C4): minimize the total provisioning cost (servers ×
//     per-server price) such that every priority class's SLA — mean and/or
//     percentile end-to-end delay — is guaranteed, choosing both integer
//     server counts and tier speeds.
//
// All solvers operate on a clone of the input cluster; the input is never
// mutated. Baseline allocators (uniform, load-proportional) used in the
// paper-style comparisons live in baselines.go.
package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// Solution is the outcome of any of the optimizers: the configured cluster,
// its analytical metrics, and solver diagnostics.
type Solution struct {
	// Cluster is a configured clone of the input with the chosen speeds
	// (and, for MinimizeCost, server counts).
	Cluster *cluster.Cluster
	// Metrics are the analytical metrics of the configured cluster.
	Metrics *cluster.Metrics
	// Objective is the achieved objective value (delay, power or cost,
	// depending on the problem).
	Objective float64
	// Result carries solver diagnostics (iterations, evaluations).
	Result opt.Result
	// Multipliers are the C3b dual's certified multipliers, one per class
	// (0 for a slack or unbounded class), set only by
	// MinimizeEnergyPerClassDual when its certificate holds; pass them back
	// as EnergyOptions.Multipliers to warm-start a nearby solve. Nil when
	// the solution came from an augmented Lagrangian.
	Multipliers []float64
}

func (s *Solution) String() string {
	return fmt.Sprintf("objective=%.6g speeds=%v (evals=%d)",
		s.Objective, s.Cluster.Speeds(), s.Result.Evals)
}

// evaluator provides the objective plumbing every optimizer shares: the
// cluster is compiled once per solve, each candidate speed vector is
// evaluated into one reused workspace, and failures map to +Inf. The last
// point is memoized, so an objective and the K constraints probed at the same
// x cost one model evaluation.
type evaluator struct {
	c  *cluster.Cluster // configured clone: the template of the Solution
	md *cluster.Model
	m  *cluster.Metrics // workspace, overwritten by every new point
	x  []float64        // last point evaluated
	ok bool             // whether x evaluated without error
}

func newEvaluator(c *cluster.Cluster) (*evaluator, error) {
	md, err := cluster.Compile(c)
	if err != nil {
		return nil, err
	}
	return &evaluator{c: c.Clone(), md: md, m: md.NewMetrics()}, nil
}

// metricsAt evaluates the model at the candidate speeds; nil means the
// configuration is invalid or unstable in a way the model rejects. The result
// is the evaluator's workspace: it is valid until the next call with
// different speeds.
func (e *evaluator) metricsAt(speeds []float64) *cluster.Metrics {
	if !e.sameX(speeds) {
		e.x = append(e.x[:0], speeds...)
		e.ok = e.md.EvaluateAt(speeds, e.m) == nil
	}
	if !e.ok {
		return nil
	}
	return e.m
}

// sameX reports whether speeds is exactly the memoized point.
func (e *evaluator) sameX(speeds []float64) bool {
	if e.x == nil || len(speeds) != len(e.x) {
		return false
	}
	for i, v := range speeds {
		//lint:waive floateq reason="memo key: only a bit-identical point may reuse the last evaluation" until=2027-08-01
		if v != e.x[i] {
			return false
		}
	}
	return true
}

// weightedDelay returns the class-weighted mean delay at the candidate
// speeds, +Inf when unstable/invalid. Weights default to arrival rates.
func (e *evaluator) weightedDelay(speeds, weights []float64) float64 {
	m := e.metricsAt(speeds)
	if m == nil {
		return math.Inf(1)
	}
	if weights == nil {
		if !m.Stable() {
			return math.Inf(1)
		}
		return m.WeightedDelay
	}
	var num, den float64
	for k, w := range weights {
		if math.IsInf(m.Delay[k], 1) {
			return math.Inf(1)
		}
		num += w * m.Delay[k]
		den += w
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// power returns total average power at the candidate speeds, +Inf on failure.
func (e *evaluator) power(speeds []float64) float64 {
	m := e.metricsAt(speeds)
	if m == nil {
		return math.Inf(1)
	}
	return m.TotalPower
}

// box returns the DVFS search box of the cluster.
func (e *evaluator) box() (opt.Box, error) {
	lo, hi := e.c.SpeedBounds()
	return opt.NewBox(lo, hi)
}

// finish assembles a Solution at the given speeds.
func (e *evaluator) finish(speeds []float64, objective float64, r opt.Result) (*Solution, error) {
	out := e.c.Clone()
	if err := out.SetSpeeds(speeds); err != nil {
		return nil, err
	}
	m, err := cluster.Evaluate(out)
	if err != nil {
		return nil, err
	}
	return &Solution{Cluster: out, Metrics: m, Objective: objective, Result: r}, nil
}
