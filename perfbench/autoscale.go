package main

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/control"
	"clusterq/internal/core"
	"clusterq/internal/obs/window"
	"clusterq/internal/opt"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// E23's quick sizing: 40 control epochs per scenario, three scenarios.
const (
	autoHorizon = 8000.0
	autoPeriod  = autoHorizon / 40
)

// quickBudget is E23's quick solver budget.
var quickBudget = struct {
	starts int
	al     opt.AugLagOptions
}{2, opt.AugLagOptions{OuterIters: 10, Inner: opt.NelderMeadOptions{MaxIters: 250}}}

type autoScenario struct {
	name     string
	profiles []sim.Profile
	peak     float64
	ctl      *control.Controller
	win      *window.Set
	op       int
}

// autoscale is E23's model arm: per scenario, the static C3b plan for the
// scenario's peak, then a controlled replication in which the model-driven
// autoscaler re-solves C3b from windowed rate estimates every epoch.
func autoscale(seed uint64, tr *tracer) (func(*tracer, *passOut), error) {
	m := tr.begin("workload.autoscale_profiles")
	base := workload.Enterprise3Tier(1)
	ramp, err1 := workload.DiurnalProfiles(base, 0.45, autoHorizon/4)
	flash, err2 := workload.FlashCrowdProfiles(base, 1.9, 0.45*autoHorizon, 0.15*autoHorizon)
	stairs, err3 := workload.StaircaseProfiles(base, []float64{0.55, 1.0, 1.4, 0.8}, autoHorizon/2)
	tr.end(m)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return nil, err
		}
	}
	scs := []*autoScenario{
		{name: "diurnal", profiles: ramp},
		{name: "flash", profiles: flash},
		{name: "staircase", profiles: stairs},
	}
	for _, sc := range scs {
		sc.op = tr.newOp()
		tr.setOp(sc.op)
		sc.peak = workload.PeakFactor(base, sc.profiles)
		m := tr.begin("control.new")
		ctl, err := control.New(base, control.Config{
			Objective: control.EnergySLA, Smoothing: 0.7, Margin: 0.35,
			Starts: quickBudget.starts, AugLag: quickBudget.al,
		})
		tr.end(m)
		if err != nil {
			return nil, err
		}
		m = tr.begin("obs.window.new")
		win, err := window.NewSet(window.Config{Width: autoPeriod, Buckets: 8}, len(base.Classes), len(base.Tiers))
		tr.end(m)
		if err != nil {
			return nil, err
		}
		sc.ctl, sc.win = ctl, win
	}
	return func(tr *tracer, out *passOut) {
		var power, worst float64
		var epochs, fallbacks int
		for i, sc := range scs {
			tr.setOp(sc.op)
			res, st, n, err := runScenario(base, sc, seed*1000+uint64(i), tr, out)
			if err != nil {
				out.fail("%s: %v", sc.name, err)
				continue
			}
			power += res.TotalPower.Mean / float64(len(scs))
			for k, cl := range base.Classes {
				worst = math.Max(worst, res.Delay[k].Mean/cl.SLA.MaxMeanDelay)
			}
			epochs += n
			fallbacks += st.Fallbacks
		}
		out.quality["mean_power_w"] = power
		out.quality["worst_delay_ratio"] = worst
		out.quality["fallback_frac"] = float64(fallbacks) / float64(max(1, epochs))
	}, nil
}

// runScenario solves the static peak plan, then runs the controlled
// replication to its horizon in epoch-long slices. It returns the result,
// the controller's counters and the number of epochs.
func runScenario(base *cluster.Cluster, sc *autoScenario, seed uint64, tr *tracer, out *passOut) (*sim.Result, control.Stats, int, error) {
	var none control.Stats
	peak := workload.ScaleArrivals(base, sc.peak)
	bounds := make([]float64, len(base.Classes))
	for k, cl := range base.Classes {
		bounds[k] = cl.SLA.MaxMeanDelay
	}
	out.attempted++
	m := tr.begin("core.c3b")
	sol, err := core.MinimizeEnergyPerClass(peak, core.EnergyOptions{
		MaxClassDelay: bounds, Starts: quickBudget.starts, AugLag: quickBudget.al,
	})
	tr.end(m)
	out.add("core.c3b.solves", 1)
	if err != nil {
		out.add("core.c3b.errors", 1)
		return nil, none, 0, fmt.Errorf("static peak plan: %w", err)
	}
	out.add("core.c3b.evals", float64(sol.Result.Evals))
	if _, err := verifyPlan(planCell{problem: "c3b"}, sol, tr, out); err != nil {
		return nil, none, 0, fmt.Errorf("static peak plan: %w", err)
	}
	static := base.Clone()
	if err := static.SetSpeeds(sol.Cluster.Speeds()); err != nil {
		return nil, none, 0, err
	}

	// A traced run's first (untraced) pass drives the bare controller; every
	// other pass wraps it in the timing delegate. Equal digests show the
	// delegate and the spans it opens change nothing.
	var pc sim.PlanController = sc.ctl
	del := &decideTimer{inner: sc.ctl, tr: tr, out: out}
	if !out.bare {
		pc = del
	}
	out.attempted++
	m = tr.begin("sim.new_replication")
	rep, err := sim.NewReplication(static, sim.Options{
		Horizon: autoHorizon, Profiles: sc.profiles,
		PlanController: pc, ControlPeriod: autoPeriod, Windows: sc.win,
	}, seed)
	tr.end(m)
	if err != nil {
		return nil, none, 0, err
	}
	out.add("sim.replications", 1)
	out.lap()
	for t := autoPeriod; t <= autoHorizon; t += autoPeriod {
		m := tr.begin("sim.advance")
		n := rep.AdvanceTo(t)
		tr.end(m)
		out.lap()
		out.events += int64(n)
		out.add("sim.events", float64(n))
	}
	m = tr.begin("sim.result")
	res, err := rep.Result()
	tr.end(m)
	if err != nil {
		return nil, none, 0, err
	}
	countFailures(out, res)
	st := sc.ctl.Stats()
	out.dig.result(res)
	out.dig.i(int64(st.Solves), int64(st.Holds), int64(st.Fallbacks))
	epochs := st.Solves + st.Holds + st.Fallbacks
	if !out.bare {
		if epochs != del.epochs {
			out.fail("%s: solves+holds+fallbacks = %d, but %d epochs ran", sc.name, epochs, del.epochs)
		}
		out.attempted += del.epochs
		out.add("control.epochs", float64(del.epochs))
		out.add("control.solves", float64(st.Solves))
		out.add("control.holds", float64(st.Holds))
		out.add("control.fallbacks", float64(st.Fallbacks))
	}
	return res, st, epochs, nil
}

// decideTimer is the benchmark's sim.PlanController: it delegates every
// epoch to the autoscaler, timing DecidePlan (a span when traced) and
// classifying the epoch by which of the autoscaler's counters moved.
type decideTimer struct {
	inner  *control.Controller
	tr     *tracer
	out    *passOut
	epochs int
}

func (d *decideTimer) Name() string { return d.inner.Name() }

func (d *decideTimer) DecidePlan(o sim.PlanObservation) sim.PlanDecision {
	before := d.inner.Stats()
	m := d.tr.begin("control.decide")
	dec := d.inner.DecidePlan(o)
	dur := ms(d.tr.end(m))
	after := d.inner.Stats()
	d.epochs++
	d.out.step(dur)
	switch {
	case after.Solves > before.Solves:
		d.out.sample("control.solve_ms", dur)
	case after.Holds > before.Holds:
		d.out.sample("control.hold_us", 1e3*dur)
	}
	return dec
}
