package control

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

func mkObs(t float64, rates ...float64) sim.PlanObservation {
	return sim.PlanObservation{Time: t, Stations: make([]sim.Observation, 3), Rates: rates}
}

func TestNewValidation(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	noSLA := c.Clone()
	for k := range noSLA.Classes {
		noSLA.Classes[k].SLA.MaxMeanDelay = 0
	}
	for _, tc := range []struct {
		name string
		c    *cluster.Cluster
		cfg  Config
	}{
		{"EnergySLA without SLA bounds", noSLA, Config{Objective: EnergySLA}},
		{"CostServers without SLA bounds", noSLA, Config{Objective: CostServers}},
		{"EnergyAggregate without bound", c, Config{Objective: EnergyAggregate}},
		{"DelayBudget without budget", c, Config{Objective: DelayBudget}},
		{"unknown objective", c, Config{Objective: Objective(99)}},
		{"smoothing above 1", c, Config{Smoothing: 1.5}},
		{"smoothing negative", c, Config{Smoothing: -0.5}},
		{"deadband at 1", c, Config{Deadband: 1}},
		{"margin absurd", c, Config{Margin: 10}},
	} {
		if _, err := New(tc.c, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The negative sentinels are explicit zeros, not errors.
	if _, err := New(c, Config{Deadband: -1, Margin: -1}); err != nil {
		t.Errorf("negative sentinels rejected: %v", err)
	}
	// Aggregate and budget objectives construct with their bound set.
	if _, err := New(c, Config{Objective: EnergyAggregate, MaxWeightedDelay: 3}); err != nil {
		t.Errorf("EnergyAggregate rejected: %v", err)
	}
	if _, err := New(c, Config{Objective: DelayBudget, PowerBudget: 2000}); err != nil {
		t.Errorf("DelayBudget rejected: %v", err)
	}
}

// TestControllerIsNotShareable pins that the stateful autoscaler cannot go
// on sim.Options.Controller, the field whose one value every concurrent
// replication shares: it plugs in only as a single-replication
// PlanController.
func TestControllerIsNotShareable(t *testing.T) {
	var pc sim.PlanController = (*Controller)(nil)
	if _, ok := pc.(sim.Controller); ok {
		t.Error("*control.Controller satisfies sim.Controller")
	}
}

func TestObjectiveStrings(t *testing.T) {
	for o, want := range map[Objective]string{
		EnergySLA: "C3b", EnergyAggregate: "C3a", DelayBudget: "C2", CostServers: "C4",
	} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
	if got := Objective(42).String(); got != "Objective(42)" {
		t.Errorf("unknown objective string %q", got)
	}
}

// TestEWMASkipsNonEstimates pins the estimator contract: NaN, Inf and
// negative window readings leave the estimate untouched; valid readings fold
// in with the configured smoothing.
func TestEWMASkipsNonEstimates(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{Smoothing: 0.5, Deadband: -1})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	a.DecidePlan(mkObs(10, math.NaN(), math.Inf(1), -3))
	if got := a.Estimates(); !reflect.DeepEqual(got, nominal) {
		t.Errorf("non-estimates moved the EWMA: %v vs %v", got, nominal)
	}
	a.DecidePlan(mkObs(20, 2*nominal[0], math.NaN(), math.NaN()))
	got := a.Estimates()
	if want := 1.5 * nominal[0]; math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("EWMA(0.5) after 2λ reading = %g, want %g", got[0], want)
	}
	if got[1] != nominal[1] || got[2] != nominal[2] {
		t.Errorf("NaN readings moved other classes: %v", got)
	}
}

// TestDeadbandHoldsQuietEstimates pins the hold path: after the initial
// solve, epochs whose estimates and backlog stay within the deadband return
// the zero decision (hold) without re-solving.
func TestDeadbandHoldsQuietEstimates(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{Deadband: 0.1, Starts: 1})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	first := a.DecidePlan(mkObs(100, nominal...))
	if len(first.Speeds) != len(c.Tiers) {
		t.Fatalf("initial decision has %d speeds, want %d", len(first.Speeds), len(c.Tiers))
	}
	hold := a.DecidePlan(mkObs(200, nominal...))
	if !reflect.DeepEqual(hold, sim.PlanDecision{}) {
		t.Errorf("quiet epoch did not hold: %+v", hold)
	}
	s := a.Stats()
	if s.Solves != 1 || s.Holds != 1 || s.Fallbacks != 0 {
		t.Errorf("stats %v, want solves=1 holds=1 fallbacks=0", s)
	}
	// A rate shift far beyond the deadband re-solves.
	shifted := make([]float64, len(nominal))
	for k, v := range nominal {
		shifted[k] = 1.6 * v
	}
	// Two epochs at the shifted rate: EWMA 0.5 reaches 1.3×, 13% above the
	// 10% deadband around the anchor.
	a.DecidePlan(mkObs(300, shifted...))
	if got := a.Stats().Solves; got != 2 {
		t.Errorf("shifted epoch did not re-solve: solves=%d", got)
	}
}

// TestBacklogBoostBreaksHold pins the drain term: a large queue re-solves
// even while the arrival-rate estimates sit exactly on the anchor.
func TestBacklogBoostBreaksHold(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{Deadband: 0.1, Starts: 1})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	a.DecidePlan(mkObs(100, nominal...))
	obs := mkObs(200, nominal...)
	obs.Stations[0].QueueLen = 10000
	a.DecidePlan(obs)
	s := a.Stats()
	if s.Holds != 0 || s.Solves+s.Fallbacks != 2 {
		t.Errorf("backlog surge held the plan: %v", s)
	}
}

// TestInfeasibleLoadFallsBack pins the fallback: estimates far beyond what
// maximum speeds can serve within the SLA bounds must produce the safe plan
// (every tier at its speed ceiling) rather than an error or a stale plan.
func TestInfeasibleLoadFallsBack(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{Starts: 1})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	huge := make([]float64, len(nominal))
	for k, v := range nominal {
		huge[k] = 1e4 * v
	}
	// Smoothing 0.5 halves the first step; two epochs get within 25% of
	// the (absurd) target, far past any feasible operating point.
	a.DecidePlan(mkObs(100, huge...))
	dec := a.DecidePlan(mkObs(200, huge...))
	if a.Stats().Fallbacks == 0 {
		t.Fatalf("infeasible load never fell back: %v", a.Stats())
	}
	_, hi := c.SpeedBounds()
	if !reflect.DeepEqual(dec.Speeds, hi) {
		t.Errorf("fallback speeds %v, want ceiling %v", dec.Speeds, hi)
	}
}

func TestStatsAndName(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Name(); got != "model(C3b)" {
		t.Errorf("Name() = %q", got)
	}
	if got := (Stats{Solves: 3, Holds: 2, Fallbacks: 1, AugLag: 1}).String(); got != "solves=3 holds=2 fallbacks=1 auglag=1" {
		t.Errorf("Stats.String() = %q", got)
	}
}

// planCluster applies a decision to a clone of c serving the margined
// estimate: every class at (1+margin)·rates[k].
func planCluster(t *testing.T, c *cluster.Cluster, dec sim.PlanDecision, margin float64, rates []float64) *cluster.Cluster {
	t.Helper()
	p := c.Clone()
	if err := p.SetSpeeds(dec.Speeds); err != nil {
		t.Fatal(err)
	}
	for j, n := range dec.Servers {
		p.Tiers[j].Servers = n
	}
	for k := range p.Classes {
		p.Classes[k].Lambda = (1 + margin) * rates[k]
	}
	return p
}

// TestDecidePlanMeetsObjectiveConstraint drives one solving epoch of every
// objective and checks the returned plan against its own constraint under
// cluster.Evaluate at the margined estimate: the SLA mean-delay bounds for
// C3b and C4, the aggregate delay bound for C3a and the power budget for C2.
func TestDecidePlanMeetsObjectiveConstraint(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	const margin = 0.15
	rates := make([]float64, len(c.Classes))
	for k, cl := range c.Classes {
		rates[k] = 0.9 * cl.Lambda
	}
	for _, tc := range []struct {
		cfg   Config
		check func(m *cluster.Metrics) error
	}{
		{Config{Objective: EnergySLA}, func(m *cluster.Metrics) error {
			for k, cl := range c.Classes {
				if b := cl.SLA.MaxMeanDelay; m.Delay[k] > b*(1+1e-6) {
					return fmt.Errorf("class %d delay %g over its SLA %g", k, m.Delay[k], b)
				}
			}
			return nil
		}},
		{Config{Objective: EnergyAggregate, MaxWeightedDelay: 2}, func(m *cluster.Metrics) error {
			if m.WeightedDelay > 2*(1+1e-9) {
				return fmt.Errorf("weighted delay %g over 2", m.WeightedDelay)
			}
			return nil
		}},
		{Config{Objective: DelayBudget, PowerBudget: 720}, func(m *cluster.Metrics) error {
			if m.TotalPower > 720*(1+1e-9) {
				return fmt.Errorf("power %g W over the 720 W budget", m.TotalPower)
			}
			return nil
		}},
		{Config{Objective: CostServers, Starts: 1}, func(m *cluster.Metrics) error {
			for k, cl := range c.Classes {
				if b := cl.SLA.MaxMeanDelay; m.Delay[k] > b*(1+1e-3) {
					return fmt.Errorf("class %d delay %g over its SLA %g", k, m.Delay[k], b)
				}
			}
			return nil
		}},
	} {
		cfg := tc.cfg
		cfg.Smoothing, cfg.Margin = 1, margin
		a, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec := a.DecidePlan(mkObs(100, rates...))
		if s := a.Stats(); s.Solves != 1 || s.Fallbacks != 0 || s.AugLag != 0 {
			t.Fatalf("%v: stats %v, want one solve", cfg.Objective, s)
		}
		m, err := cluster.Evaluate(planCluster(t, c, dec, margin, rates))
		if err != nil {
			t.Fatalf("%v: plan does not evaluate: %v", cfg.Objective, err)
		}
		if err := tc.check(m); err != nil {
			t.Errorf("%v: %v", cfg.Objective, err)
		}
	}
}

// TestDecidePlanInfeasibleLoadFallsBack pins the fallback for every
// objective: an estimate no operating point can serve within the constraint
// returns the safe plan and counts a fallback, not a solve. C4 can buy
// servers, so its load must outgrow MinimizeCost's 64-server search cap.
func TestDecidePlanInfeasibleLoadFallsBack(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	for _, tc := range []struct {
		cfg  Config
		load float64
	}{
		{Config{Objective: EnergySLA}, 3},
		{Config{Objective: EnergyAggregate, MaxWeightedDelay: 2}, 3},
		{Config{Objective: DelayBudget, PowerBudget: 700}, 3},
		{Config{Objective: CostServers, Starts: 1}, 100},
	} {
		cfg := tc.cfg
		cfg.Smoothing = 1
		a, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		huge := a.Estimates()
		for k := range huge {
			huge[k] *= tc.load
		}
		dec := a.DecidePlan(mkObs(100, huge...))
		if s := a.Stats(); s.Fallbacks != 1 || s.Solves != 0 {
			t.Errorf("%v: stats %v, want one fallback", cfg.Objective, s)
		}
		_, hi := c.SpeedBounds()
		if !reflect.DeepEqual(dec.Speeds, hi) {
			t.Errorf("%v: fallback speeds %v, want ceiling %v", cfg.Objective, dec.Speeds, hi)
		}
	}
}

// TestEnergySLAWarmStartMatchesColdSolve checks the C3b warm start end to
// end: along a load swing, every epoch's plan equals a cold solve of the
// same problem within 1e-6, and the warm re-solves certify (no
// augmented-Lagrangian fallback).
func TestEnergySLAWarmStartMatchesColdSolve(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	const margin = 0.15
	a, err := New(c, Config{Smoothing: 1, Margin: margin, Deadband: -1})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	for e, f := range []float64{1, 0.8, 0.6, 0.75, 0.9, 1.1, 1.05, 0.85} {
		rates := make([]float64, len(nominal))
		for k, v := range nominal {
			rates[k] = f * v
		}
		dec := a.DecidePlan(mkObs(float64(100*(e+1)), rates...))
		p := planCluster(t, c, sim.PlanDecision{Speeds: c.Speeds()}, margin, rates)
		cold, err := core.MinimizeEnergyPerClassDual(p, core.EnergyOptions{MaxClassDelay: []float64{
			c.Classes[0].SLA.MaxMeanDelay, c.Classes[1].SLA.MaxMeanDelay, c.Classes[2].SLA.MaxMeanDelay}})
		if err != nil {
			t.Fatalf("epoch %d: cold solve: %v", e, err)
		}
		for j, s := range dec.Speeds {
			if r := cold.Cluster.Speeds()[j]; math.Abs(s-r) > 1e-6*r {
				t.Errorf("epoch %d tier %d: warm plan %.12g vs cold %.12g", e, j, s, r)
			}
		}
	}
	if s := a.Stats(); s.Solves != 8 || s.AugLag != 0 {
		t.Errorf("stats %v, want 8 certified solves", s)
	}
}

// BenchmarkControllerEpoch measures the autoscaler's per-epoch cost on a
// fixed observation sequence: a ±40% sinusoidal load swing over 40 epochs
// through DecidePlan with the default C3b objective, E23's smoothing and
// margin, and the deadband off so that every epoch re-solves warm.
func BenchmarkControllerEpoch(b *testing.B) {
	c := workload.Enterprise3Tier(1)
	nominal := c.Lambdas()
	const epochs = 40
	obs := make([]sim.PlanObservation, epochs)
	for e := range obs {
		f := 1 + 0.4*math.Sin(2*math.Pi*float64(e)/epochs)
		rates := make([]float64, len(nominal))
		for k, v := range nominal {
			rates[k] = f * v
		}
		obs[e] = sim.PlanObservation{Time: float64(100 * (e + 1)), Stations: make([]sim.Observation, 3), Rates: rates}
	}
	a, err := New(c, Config{Smoothing: 0.7, Margin: 0.35, Deadband: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DecidePlan(obs[i%epochs])
	}
	b.StopTimer()
	if s := a.Stats(); s.Fallbacks != 0 || s.AugLag != 0 {
		b.Fatalf("stats %v: the swing should stay feasible and certified", s)
	}
}
