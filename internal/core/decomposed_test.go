package core

import (
	"testing"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/workload"
)

func TestDualMatchesAugLagOnEnergy(t *testing.T) {
	// Both solvers attack the same separable problem; the dual must find a
	// power no worse than the general solver (it is exact here) while
	// meeting the bound.
	for _, shape := range []struct{ j, k int }{{2, 2}, {3, 3}} {
		c := symCluster(shape.j, shape.k, 0.6)
		bound := 3.0
		dual, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
		if err != nil {
			t.Fatalf("%dx%d dual: %v", shape.j, shape.k, err)
		}
		al, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound, Starts: 3})
		if err != nil {
			t.Fatalf("%dx%d auglag: %v", shape.j, shape.k, err)
		}
		if dual.Metrics.WeightedDelay > bound*1.001 {
			t.Errorf("%dx%d: dual violates bound: %g", shape.j, shape.k, dual.Metrics.WeightedDelay)
		}
		if dual.Objective > al.Objective*1.005 {
			t.Errorf("%dx%d: dual power %g worse than auglag %g", shape.j, shape.k, dual.Objective, al.Objective)
		}
	}
}

func TestDualMatchesAugLagOnDelay(t *testing.T) {
	c := symCluster(3, 2, 0.6)
	budget := 700.0
	dual, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	al, err := MinimizeDelay(c, DelayOptions{EnergyBudget: budget, Starts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dual.Metrics.TotalPower > budget*1.001 {
		t.Errorf("dual violates budget: %g", dual.Metrics.TotalPower)
	}
	if dual.Objective > al.Objective*1.005 {
		t.Errorf("dual delay %g worse than auglag %g", dual.Objective, al.Objective)
	}
}

func TestDualMuchFasterThanAugLag(t *testing.T) {
	c := symCluster(5, 4, 0.6)
	bound := 3.0
	// This test deliberately measures wall time: its whole point is the
	// solver-speed comparison, not simulated time.
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	t0 := time.Now()
	if _, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound}); err != nil {
		t.Fatal(err)
	}
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	dualTime := time.Since(t0)
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	t0 = time.Now()
	if _, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound, Starts: 2}); err != nil {
		t.Fatal(err)
	}
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	alTime := time.Since(t0)
	if dualTime*3 > alTime {
		t.Logf("dual %v vs auglag %v — decomposition expected to be much faster", dualTime, alTime)
		// Timing assertions are flaky on loaded machines; only fail when
		// the dual is actually SLOWER.
		if dualTime > alTime {
			t.Errorf("dual (%v) slower than auglag (%v)", dualTime, alTime)
		}
	}
}

func TestDualLooseBoundStopsAtPowerFloor(t *testing.T) {
	// With an enormous bound the dual must return the β=0 point: the
	// cheapest stable speeds.
	c := symCluster(2, 2, 0.5)
	sol, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := sol.Cluster.SpeedBounds()
	for i, s := range sol.Cluster.Speeds() {
		if s > lo[i]*1.02 {
			t.Errorf("tier %d speed %g above floor %g with a loose bound", i, s, lo[i])
		}
	}
}

func TestDualRichBudgetRunsFlatOut(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	sol, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	_, hi := sol.Cluster.SpeedBounds()
	for i, s := range sol.Cluster.Speeds() {
		if s < hi[i]*0.98 {
			t.Errorf("tier %d speed %g below max %g with an unlimited budget", i, s, hi[i])
		}
	}
}

func TestDualInfeasibleCases(t *testing.T) {
	c := symCluster(3, 2, 0.7)
	if _, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: 1e-9}); err == nil {
		t.Error("impossible bound accepted")
	}
	if _, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: -1}); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 1}); err == nil {
		t.Error("impossible budget accepted")
	}
	if _, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 500, Weights: []float64{1}}); err == nil {
		t.Error("wrong weight count accepted")
	}
}

func TestDualAsymmetricBeatsUniform(t *testing.T) {
	// The scenario where per-tier optimization matters: the dual must beat
	// the uniform baseline like the general solver does.
	c := symCluster(3, 2, 0.5)
	for k := range c.Tiers[2].Demands {
		c.Tiers[2].Demands[k].Work = 3
	}
	c.Tiers[2].MaxSpeed = 24
	bound := 5.0
	dual, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		t.Fatal(err)
	}
	base, err := UniformEnergyBaseline(c, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !(dual.Objective <= base.Objective*1.001) {
		t.Errorf("dual %g W worse than uniform %g W", dual.Objective, base.Objective)
	}
}

func TestDualDelayObjectiveIsWeightedDelay(t *testing.T) {
	c := symCluster(2, 2, 0.6)
	sol, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Objective, sol.Metrics.WeightedDelay, 1e-9) {
		t.Errorf("objective %g != weighted delay %g", sol.Objective, sol.Metrics.WeightedDelay)
	}
}

// TestDualHonoursAvailability pins the duals to the availability-degraded
// model Evaluate reports: a tier with availability A serves at s·A, and its
// power counts ρA busy servers over an idle floor shrunk by A. Reading the
// tier functions at the raw speed left the C3a plan over its delay bound and
// made C2 declare a budget infeasible that the reference speeds meet.
func TestDualHonoursAvailability(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	for _, tier := range c.Tiers {
		tier.Availability = 0.9
	}
	ref, err := cluster.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}

	bound := ref.WeightedDelay
	e, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		t.Fatalf("C3a dual: %v", err)
	}
	if got := e.Metrics.WeightedDelay; got > bound*1.001 {
		t.Errorf("C3a dual plan's weighted delay %g s exceeds its bound %g s", got, bound)
	}
	if !almostEq(e.Objective, e.Metrics.TotalPower, 1e-9) {
		t.Errorf("C3a dual objective %g W != evaluated power %g W", e.Objective, e.Metrics.TotalPower)
	}

	// The reference speeds meet their own power, so the budget is feasible.
	budget := ref.TotalPower
	d, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: budget})
	if err != nil {
		t.Fatalf("C2 dual at the reference configuration's own power: %v", err)
	}
	if got := d.Metrics.TotalPower; got > budget*1.001 {
		t.Errorf("C2 dual plan's power %g W exceeds its budget %g W", got, budget)
	}
	if d.Metrics.WeightedDelay > ref.WeightedDelay*1.001 {
		t.Errorf("C2 dual delay %g s worse than the reference %g s at the same power",
			d.Metrics.WeightedDelay, ref.WeightedDelay)
	}
}
