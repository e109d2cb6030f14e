package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/workload"
)

// slaBounds returns the cluster's SLA mean-delay bounds, one per class.
func slaBounds(c *cluster.Cluster) []float64 {
	b := make([]float64, len(c.Classes))
	for k, cl := range c.Classes {
		b[k] = cl.SLA.MaxMeanDelay
	}
	return b
}

// checkPerClassPlan asserts what a C3b plan promises under the reference
// evaluation of its own cluster: every bound met within 1e-6 (relative),
// and, when the dual certified it, complementary slackness — a class with a
// positive multiplier sits on its bound within 1e-6.
func checkPerClassPlan(t *testing.T, name string, sol *Solution, bounds []float64) {
	t.Helper()
	m, err := cluster.Evaluate(sol.Cluster)
	if err != nil {
		t.Fatalf("%s: plan does not evaluate: %v", name, err)
	}
	for k, b := range bounds {
		if !bounding(b) {
			continue
		}
		gap := (m.Delay[k] - b) / b
		if gap > 1e-6 {
			t.Errorf("%s: class %d delay %g over its bound %g (relative %g)", name, k, m.Delay[k], b, gap)
		}
		if sol.Multipliers != nil && sol.Multipliers[k] > 0 && gap < -1e-6 {
			t.Errorf("%s: class %d has multiplier %g but is slack (relative gap %g)", name, k, sol.Multipliers[k], gap)
		}
	}
}

// TestPerClassBoundsNaNAndInf pins the C3b bound contract both solvers
// share: a NaN bound is an error naming its class, and a +Inf bound leaves
// its class unconstrained — the same plan as an entry of 0. A NaN bound used
// to become a live constraint whose value was always NaN, poisoning the
// multipliers until the solve failed with a bogus violation.
func TestPerClassBoundsNaNAndInf(t *testing.T) {
	solvers := map[string]func(*cluster.Cluster, EnergyOptions) (*Solution, error){
		"auglag": MinimizeEnergyPerClass,
		"dual":   MinimizeEnergyPerClassDual,
	}
	for name, solve := range solvers {
		c := workload.Enterprise3Tier(1)
		_, err := solve(c, EnergyOptions{MaxClassDelay: []float64{1.6, math.NaN(), 6}, Starts: 2, AugLag: goldenAL})
		if err == nil || !strings.Contains(err.Error(), "class 1") {
			t.Errorf("%s: NaN bound for class 1: err = %v, want an error naming class 1", name, err)
		}
		inf, err := solve(c, EnergyOptions{MaxClassDelay: []float64{1.6, math.Inf(1), 6}, Starts: 2, AugLag: goldenAL})
		if err != nil {
			t.Fatalf("%s: +Inf bound: %v", name, err)
		}
		zero, err := solve(c, EnergyOptions{MaxClassDelay: []float64{1.6, 0, 6}, Starts: 2, AugLag: goldenAL})
		if err != nil {
			t.Fatalf("%s: zero bound: %v", name, err)
		}
		if got, want := solutionKey(inf, nil), solutionKey(zero, nil); got != want {
			t.Errorf("%s: +Inf bound plan %s differs from the unconstrained plan %s", name, got, want)
		}
		if _, err := solve(c, EnergyOptions{MaxClassDelay: []float64{math.Inf(1), -1, math.Inf(-1)}}); err == nil {
			t.Errorf("%s: no finite positive bound accepted", name)
		}
	}
}

// TestPerClassDualMatchesAugLag is the dual's differential test: on seeded
// random instances — scalable J×K clusters, both enterprise scenarios and
// random clusters, at arrival scales 0.4–1.3 with random bound slack — the
// dual must certify its plan and match the default-budget augmented
// Lagrangian's power within 1e-3.
func TestPerClassDualMatchesAugLag(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type instance struct {
		name string
		c    *cluster.Cluster
	}
	var cases []instance
	for _, sh := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 3}} {
		cases = append(cases, instance{"scalable", workload.Scalable(sh[0], sh[1], 1)})
	}
	for i := 0; i < 3; i++ {
		cases = append(cases,
			instance{"enterprise", workload.Enterprise3Tier(1)},
			instance{"heavydb", workload.Enterprise3TierHeavyDB(1)})
	}
	for i := 0; i < 4; i++ {
		cases = append(cases, instance{"random", randomCluster(rng)})
	}
	for i, tc := range cases {
		c := workload.ScaleArrivals(tc.c, 0.4+0.9*rng.Float64())
		fast := c.Clone()
		_, hi := fast.SpeedBounds()
		if err := fast.SetSpeeds(hi); err != nil {
			t.Fatal(err)
		}
		m, err := cluster.Evaluate(fast)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, tc.name, err)
		}
		// Bounds from 2% to 5× above the least achievable delay; one class
		// in five is left unconstrained.
		bounds := make([]float64, len(c.Classes))
		for k := range bounds {
			if rng.Float64() < 0.2 && k > 0 {
				continue
			}
			bounds[k] = m.Delay[k] * (1 + math.Exp(math.Log(0.02)+rng.Float64()*math.Log(250)))
		}
		o := EnergyOptions{MaxClassDelay: bounds}
		dual, err := MinimizeEnergyPerClassDual(c, o)
		if err != nil {
			t.Fatalf("case %d (%s): dual: %v", i, tc.name, err)
		}
		if dual.Multipliers == nil {
			t.Errorf("case %d (%s): the dual fell back to the augmented Lagrangian", i, tc.name)
		}
		al, err := MinimizeEnergyPerClass(c, o)
		if err != nil {
			t.Fatalf("case %d (%s): auglag: %v", i, tc.name, err)
		}
		if gap := math.Abs(dual.Objective-al.Objective) / al.Objective; gap > 1e-3 {
			t.Errorf("case %d (%s): dual %g W vs auglag %g W: gap %.2e", i, tc.name, dual.Objective, al.Objective, gap)
		}
		checkPerClassPlan(t, tc.name, dual, bounds)
	}
}

// TestPerClassDualWarmStartInvariant pins the warm start as a cost-only
// hint: starting from zero, from the optimal multipliers, from ten times
// them and from a mixed vector gives the same plan within 1e-6.
func TestPerClassDualWarmStartInvariant(t *testing.T) {
	for _, c := range []*cluster.Cluster{
		workload.Enterprise3Tier(0.85),       // gold and bronze bind
		workload.Enterprise3Tier(1.2),        // bronze binds
		workload.Enterprise3TierHeavyDB(0.6), // gold and bronze bind
	} {
		bounds := slaBounds(c)
		ref, err := MinimizeEnergyPerClassDual(c, EnergyOptions{MaxClassDelay: bounds})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Multipliers == nil {
			t.Fatal("cold solve fell back to the augmented Lagrangian")
		}
		beta := ref.Multipliers
		scaled := make([]float64, len(beta))
		mixed := make([]float64, len(beta))
		for k, b := range beta {
			scaled[k] = 10 * b
			mixed[k] = []float64{0, 3 * ref.Objective, 0.1}[k%3] + b
		}
		for name, warm := range map[string][]float64{
			"zero": make([]float64, len(beta)), "optimal": beta, "10x": scaled, "mixed": mixed,
		} {
			sol, err := MinimizeEnergyPerClassDual(c, EnergyOptions{MaxClassDelay: bounds, Multipliers: warm})
			if err != nil {
				t.Fatalf("%s start: %v", name, err)
			}
			if sol.Multipliers == nil {
				t.Errorf("%s start fell back to the augmented Lagrangian", name)
			}
			for j, s := range sol.Cluster.Speeds() {
				if r := ref.Cluster.Speeds()[j]; math.Abs(s-r) > 1e-6*r {
					t.Errorf("%s start: tier %d speed %.12g vs %.12g from a cold start", name, j, s, r)
				}
			}
			if math.Abs(sol.Objective-ref.Objective) > 1e-6*ref.Objective {
				t.Errorf("%s start: power %.12g vs %.12g from a cold start", name, sol.Objective, ref.Objective)
			}
			checkPerClassPlan(t, name, sol, bounds)
		}
	}
}

// TestPerClassDualWarmStartIsCheap checks that the warm start pays: a
// re-solve after a 3% load change from the previous multipliers needs far
// fewer Lagrangian minimizations than a cold solve.
func TestPerClassDualWarmStartIsCheap(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	bounds := slaBounds(c)
	prev, err := MinimizeEnergyPerClassDual(c, EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	next := workload.ScaleArrivals(c, 1.03)
	cold, err := MinimizeEnergyPerClassDual(next, EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := MinimizeEnergyPerClassDual(next, EnergyOptions{MaxClassDelay: bounds, Multipliers: prev.Multipliers})
	if err != nil {
		t.Fatal(err)
	}
	if !(2*warm.Result.Evals <= cold.Result.Evals) {
		t.Errorf("warm solve took %d minimizations, cold %d", warm.Result.Evals, cold.Result.Evals)
	}
}

// TestPerClassDualInfeasibleMatchesAugLag pins the infeasibility contract:
// the dual rejects an unreachable bound with MinimizeEnergyPerClass's error,
// so callers (the autoscaler's max-speed fallback) react identically.
func TestPerClassDualInfeasibleMatchesAugLag(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	for _, bounds := range [][]float64{{0.01, 3, 6}, {1.6, 3}, {0, 0, 0}} {
		_, errAL := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
		_, errDual := MinimizeEnergyPerClassDual(c, EnergyOptions{MaxClassDelay: bounds})
		if errAL == nil || errDual == nil || errAL.Error() != errDual.Error() {
			t.Errorf("bounds %v: dual error %v, auglag error %v", bounds, errDual, errAL)
		}
	}
	if _, err := MinimizeEnergyPerClassDual(c, EnergyOptions{MaxClassDelay: slaBounds(c), Multipliers: []float64{1}}); err == nil {
		t.Error("a multiplier vector of the wrong length was accepted")
	}
}

// FuzzPerClassDual drives the dual with arbitrary arrival scales, bounds
// (NaN, ±Inf, zero and negative included) and warm multipliers. It must
// never panic, and must return either an error or a plan that meets every
// finite positive bound.
func FuzzPerClassDual(f *testing.F) {
	f.Add(1.0, 1.6, 3.0, 6.0, 0.0, 0.0, 0.0)
	f.Add(0.85, 1.6, 3.0, 6.0, 28.0, 0.0, 3.2)
	f.Add(1.2, 1.6, math.NaN(), 6.0, 1e300, -1.0, math.Inf(1))
	f.Add(0.4, math.Inf(1), -2.0, 0.0, math.NaN(), 5.0, 0.0)
	f.Add(1.3, 0.5, 0.9, 2.0, 1e-300, 1e6, 7.0)
	f.Fuzz(func(t *testing.T, scale, b0, b1, b2, m0, m1, m2 float64) {
		if !(scale > 0.05 && scale < 2) {
			return // the scenario itself is not stable at every scale
		}
		c := workload.ScaleArrivals(workload.Enterprise3Tier(1), scale)
		bounds := []float64{b0, b1, b2}
		sol, err := MinimizeEnergyPerClassDual(c, EnergyOptions{
			MaxClassDelay: bounds, Multipliers: []float64{m0, m1, m2},
			Starts: 1, AugLag: goldenAL,
		})
		if err != nil {
			return
		}
		m, err := cluster.Evaluate(sol.Cluster)
		if err != nil {
			t.Fatalf("plan does not evaluate: %v", err)
		}
		// A certified plan meets its bounds within 1e-6; the fallback's
		// own guard allows 1e-3.
		tol := 1e-6
		if sol.Multipliers == nil {
			tol = 1e-3
		}
		for k, b := range bounds {
			if bounding(b) && m.Delay[k] > b*(1+tol) {
				t.Errorf("class %d delay %g over its bound %g", k, m.Delay[k], b)
			}
		}
	})
}
