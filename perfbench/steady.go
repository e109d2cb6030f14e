package main

import (
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// steady_sim sizing: replications of the canonical cluster at nominal load,
// each advanced to its horizon in equal simulated slices.
const (
	steadyReps    = 8
	steadyHorizon = 50000.0
	steadySlices  = 25
)

// steadySim is the C5 validation run (E1/E2 shape): the simulator does all
// the work and the solvers none. Replication r is a stepped
// sim.NewReplication with seed base+r — bit-identical to replication r of
// sim.Run — because only the stepped form reports events (AdvanceTo
// returns). Every observer and controller is off.
func steadySim(seed uint64, tr *tracer) (func(*tracer, *passOut), error) {
	m := tr.begin("workload.enterprise3tier")
	c := workload.Enterprise3Tier(1)
	tr.end(m)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	base := seed * 1000
	reps := make([]*sim.Replication, steadyReps)
	ops := make([]int, steadyReps)
	for r := range reps {
		ops[r] = tr.newOp()
		tr.setOp(ops[r])
		m := tr.begin("sim.new_replication")
		rep, err := sim.NewReplication(c, sim.Options{Horizon: steadyHorizon}, base+uint64(r))
		tr.end(m)
		if err != nil {
			return nil, err
		}
		reps[r] = rep
	}
	return func(tr *tracer, out *passOut) {
		tr.setOp(tr.newOp())
		m := tr.begin("cluster.evaluate")
		ref, err := cluster.Evaluate(c)
		tr.end(m)
		if err != nil {
			out.fail("analytic reference: %v", err)
			return
		}
		k := len(c.Classes)
		delay := make([]float64, k)
		var power float64
		for r, rep := range reps {
			tr.setOp(ops[r])
			out.attempted++
			out.add("sim.replications", 1)
			for i := 1; i <= steadySlices; i++ {
				m := tr.begin("sim.advance")
				n := rep.AdvanceTo(steadyHorizon * float64(i) / steadySlices)
				out.step(ms(tr.end(m)))
				out.lap()
				out.events += int64(n)
			}
			m := tr.begin("sim.result")
			res, err := rep.Result()
			tr.end(m)
			if err != nil {
				out.fail("replication %d: %v", r, err)
				continue
			}
			out.dig.result(res)
			countFailures(out, res)
			for j := range delay {
				delay[j] += res.Delay[j].Mean / steadyReps
			}
			power += res.TotalPower.Mean / steadyReps
		}
		out.add("sim.events", float64(out.events))
		var errPct, worst float64
		for j, cl := range c.Classes {
			errPct = math.Max(errPct, 100*math.Abs(delay[j]-ref.Delay[j])/ref.Delay[j])
			worst = math.Max(worst, delay[j]/cl.SLA.MaxMeanDelay)
		}
		// The model is an approximation for this priority network
		// (E1 reports a few percent per class); a simulator or model
		// defect shows as a gross disagreement.
		if !(errPct < 15) {
			out.fail("simulated delays disagree with the model by %.1f%%", errPct)
		}
		out.quality["delay_err_pct"] = errPct
		out.quality["mean_power_w"] = power
		out.quality["worst_delay_ratio"] = worst
	}, nil
}

// countFailures tallies a result's degraded-mode counters per layer.
func countFailures(out *passOut, res *sim.Result) {
	out.add("sim.timeouts", float64(sum64(res.Timeouts)))
	out.add("sim.retries", float64(sum64(res.Retries)))
	out.add("sim.abandoned", float64(sum64(res.Abandoned)))
	out.add("sim.shed", float64(sum64(res.Shed)))
}
