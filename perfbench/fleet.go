package main

import (
	"io"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/sim"
	"clusterq/internal/sim/multi"
	"clusterq/internal/workload"
)

// fleet_observed sizing: fleet runs per pass, each advanced in slices.
const (
	fleetRuns     = 2
	fleetHorizon  = 30000.0
	fleetSlices   = 60
	fleetRecorder = 1 << 14 // flight-recorder ring capacity per replica
)

// fleetGens is E22's three-generation fleet at 55% nominal load: the legacy
// generation breaks down (availability 0.9, MTBF 10 s), the newest runs the
// reactive DVFS policy.
var fleetGens = []struct {
	name         string
	speedFactor  float64
	availability float64
	dvfs         bool
}{
	{"gen1-legacy", 0.8, 0.9, false},
	{"gen2-current", 1.0, 1, false},
	{"gen3-dvfs", 1.25, 1, true},
}

type fleetRun struct {
	orch *multi.Orchestrator
	recs []*trace.Recorder
	cs   []*cluster.Cluster
	op   int
}

// fleetObserved runs E22's fleet under the shared-clock orchestrator with
// E21's degraded-mode pipeline (deadlines with retries, shedding) on every
// replica, and the flight recorder and window sensors attached to each.
func fleetObserved(seed uint64, tr *tracer) (func(*tracer, *passOut), error) {
	runs := make([]*fleetRun, fleetRuns)
	for f := range runs {
		fr := &fleetRun{op: tr.newOp()}
		tr.setOp(fr.op)
		var reps []multi.Replica
		for i, g := range fleetGens {
			m := tr.begin("workload.fleet_cluster")
			c := workload.CapacityFraction(workload.Enterprise3Tier(1), 0.55).Clone()
			tr.end(m)
			for _, t := range c.Tiers {
				t.Speed *= g.speedFactor
				t.MinSpeed *= g.speedFactor
				t.MaxSpeed *= g.speedFactor
			}
			o := sim.Options{
				Horizon: fleetHorizon,
				Deadlines: []*sim.DeadlineConfig{
					{Deadline: 8, MaxRetries: 2, RetryBackoff: 0.5},
					{Deadline: 10, MaxRetries: 1, RetryBackoff: 1},
					{Deadline: 12},
				},
				Shedding: &sim.SheddingConfig{Threshold: 0.92, Period: 25},
				Recorder: trace.NewRecorder(fleetRecorder),
			}
			if g.availability < 1 {
				o.Failures = make([]*sim.FailureConfig, len(c.Tiers))
				for j := range o.Failures {
					o.Failures[j] = &sim.FailureConfig{MTBF: 10, MTTR: 10 * (1 - g.availability) / g.availability}
				}
			}
			if g.dvfs {
				o.Controller = sim.UtilizationPolicy{Target: 0.6}
				o.ControlPeriod = 25
			}
			m = tr.begin("obs.window.new")
			win, err := window.NewSet(window.Config{Width: 250}, len(c.Classes), len(c.Tiers))
			tr.end(m)
			if err != nil {
				return nil, err
			}
			o.Windows = win
			reps = append(reps, multi.Replica{Name: g.name, Cluster: c, Options: o,
				Seed: seed*1000 + uint64(10*f+i)})
			fr.recs = append(fr.recs, o.Recorder)
			fr.cs = append(fr.cs, c)
		}
		m := tr.begin("multi.new")
		orch, err := multi.New(reps)
		tr.end(m)
		if err != nil {
			return nil, err
		}
		fr.orch = orch
		runs[f] = fr
	}
	return func(tr *tracer, out *passOut) {
		var power, worst, good, offered float64
		for f, fr := range runs {
			tr.setOp(fr.op)
			out.attempted++
			out.add("multi.replicas", float64(fr.orch.Len()))
			for i := 1; i <= fleetSlices; i++ {
				m := tr.begin("multi.advance")
				n := fr.orch.AdvanceTo(fleetHorizon * float64(i) / fleetSlices)
				out.step(ms(tr.end(m)))
				out.lap()
				out.events += int64(n)
				out.add("multi.events", float64(n))
			}
			m := tr.begin("multi.results")
			results, err := fr.orch.Results()
			var sum multi.Summary
			if err == nil {
				sum = multi.Summarize(results)
			}
			tr.end(m)
			if err != nil {
				out.fail("fleet %d: %v", f, err)
				continue
			}
			out.dig.f(sum.TotalPower, sum.WeightedDelay)
			out.dig.i(sum.Completed)
			power += sum.TotalPower / fleetRuns
			for i, res := range results {
				out.dig.result(res)
				countFailures(out, res)
				for k, cl := range fr.cs[i].Classes {
					worst = math.Max(worst, res.Delay[k].Mean/cl.SLA.MaxMeanDelay)
					good += res.Goodput[k].Mean
					offered += cl.Lambda
				}
			}
			m = tr.begin("obs.trace.export")
			for _, rec := range fr.recs {
				spans := rec.Spans()
				if err := rec.WriteChromeTrace(io.Discard); err != nil {
					out.fail("fleet %d: recorder export: %v", f, err)
				}
				out.dig.i(int64(len(spans)))
			}
			tr.end(m)
			for _, rec := range fr.recs {
				kept := uint64(len(rec.Events()))
				out.add("obs.trace.events", float64(kept+rec.EventsDropped()))
				out.add("obs.trace.events_dropped", float64(rec.EventsDropped()))
				out.add("obs.trace.spans_dropped", float64(rec.SpansDropped()))
				out.dig.i(int64(kept), int64(rec.EventsDropped()), int64(rec.SpansDropped()))
			}
		}
		out.quality["mean_power_w"] = power
		out.quality["worst_delay_ratio"] = worst
		out.quality["goodput_frac"] = good / offered
	}, nil
}
