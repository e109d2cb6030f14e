package experiments

import (
	"fmt"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/workload"
)

// E17 is the solver ablation: the Lagrangian dual decomposition (which
// exploits the model's separability across tiers — the structure the paper's
// analytical setting provides) against the general-purpose augmented
// Lagrangian, on identical C3a instances and on identical C3b instances
// (one delay bound per class, so one multiplier per class). Expected:
// identical solutions, with the dual orders of magnitude cheaper — evidence
// that the paper's "efficient" claim is structural, not solver luck.
type E17 struct{}

func (E17) ID() string { return "E17" }
func (E17) Title() string {
	return "Ablation — Lagrangian dual decomposition vs general augmented Lagrangian (C3a, C3b)"
}

func (E17) Run(cfg Config) ([]*Table, error) {
	starts, al := solverScale(cfg)
	shapes := []struct{ j, k int }{{2, 2}, {3, 3}, {5, 3}, {8, 4}}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	t := NewTable("MinimizeEnergy: dual decomposition vs augmented Lagrangian",
		"tiers", "classes",
		"dual: power W", "dual: ms", "dual: evals",
		"auglag: power W", "auglag: ms", "auglag: evals",
		"power gap")
	for _, sh := range shapes {
		c := workload.Scalable(sh.j, sh.k, 1)
		_, dWorst, err := delayRange(c)
		if err != nil {
			return nil, err
		}
		bound := dWorst * 0.5

		t0 := time.Now()
		dual, err := core.MinimizeEnergyDual(c, core.EnergyOptions{MaxWeightedDelay: bound})
		dualMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		alSol, err := core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound, Starts: starts, AugLag: al})
		alMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return nil, err
		}
		gap := (alSol.Objective - dual.Objective) / dual.Objective
		t.AddRow(sh.j, sh.k,
			dual.Objective, dualMS, dual.Result.Evals,
			alSol.Objective, alMS, alSol.Result.Evals,
			Pct(gap))
	}

	// C3b on the same shapes with midpoint bounds. Their tiers are
	// identical, so every optimum runs them at one speed and one class
	// binds; the two enterprise scenarios at their SLA bounds add optima
	// where gold and bronze both bind.
	type c3b struct {
		name   string
		c      *cluster.Cluster
		bounds []float64
	}
	var cases []c3b
	for _, sh := range shapes {
		c := workload.Scalable(sh.j, sh.k, 1)
		bounds, err := midClassBounds(c)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c3b{"scalable", c, bounds})
	}
	for _, sc := range []struct {
		name string
		c    *cluster.Cluster
	}{
		{"enterprise, load 0.85", workload.Enterprise3Tier(0.85)},
		{"heavy-db, load 0.6", workload.Enterprise3TierHeavyDB(0.6)},
	} {
		bounds := make([]float64, len(sc.c.Classes))
		for k, cl := range sc.c.Classes {
			bounds[k] = cl.SLA.MaxMeanDelay
		}
		cases = append(cases, c3b{sc.name, sc.c, bounds})
	}
	pc := NewTable("MinimizeEnergyPerClass: per-class dual vs augmented Lagrangian",
		"scenario", "tiers", "classes", "binding",
		"dual: power W", "dual: ms", "dual: evals",
		"auglag: power W", "auglag: ms", "auglag: evals",
		"power gap")
	for _, cs := range cases {
		o := core.EnergyOptions{MaxClassDelay: cs.bounds, Starts: starts, AugLag: al}
		t0 := time.Now()
		dual, err := core.MinimizeEnergyPerClassDual(cs.c, o)
		dualMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return nil, err
		}
		if dual.Multipliers == nil {
			return nil, fmt.Errorf("%s: the per-class dual fell back to the augmented Lagrangian", cs.name)
		}
		binding := 0
		for _, b := range dual.Multipliers {
			if b > 0 {
				binding++
			}
		}
		t0 = time.Now()
		alSol, err := core.MinimizeEnergyPerClass(cs.c, o)
		alMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return nil, err
		}
		gap := (alSol.Objective - dual.Objective) / dual.Objective
		pc.AddRow(cs.name, len(cs.c.Tiers), len(cs.c.Classes), binding,
			dual.Objective, dualMS, dual.Result.Evals,
			alSol.Objective, alMS, alSol.Result.Evals,
			fmt.Sprintf("%.1e", gap))
	}
	return []*Table{t, pc}, nil
}

// midClassBounds bounds every class's mean delay halfway between what it
// gets at maximum speeds and at a stable-but-leisurely point (20% of the
// way up from the stability floor), the per-class analogue of the C3a rows'
// bound.
func midClassBounds(c *cluster.Cluster) ([]float64, error) {
	lo, hi := c.SpeedBounds()
	slowSpeeds := make([]float64, len(lo))
	for i := range lo {
		slowSpeeds[i] = lo[i] + 0.2*(hi[i]-lo[i])
	}
	at := func(speeds []float64) (*cluster.Metrics, error) {
		x := c.Clone()
		if err := x.SetSpeeds(speeds); err != nil {
			return nil, err
		}
		return cluster.Evaluate(x)
	}
	fast, err := at(hi)
	if err != nil {
		return nil, err
	}
	slow, err := at(slowSpeeds)
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(c.Classes))
	for k := range bounds {
		bounds[k] = (fast.Delay[k] + slow.Delay[k]) / 2
	}
	return bounds, nil
}
