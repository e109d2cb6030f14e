package core

import (
	"fmt"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
	"clusterq/internal/queueing"
	"clusterq/internal/workload"
)

// The solver golden pins every optimizer's output bit for bit: objective,
// chosen speeds and evaluation count, rendered as hexadecimal floats. Any
// change to the analytic model's arithmetic or to a solver's evaluation
// sequence shows up here, so a refactor of the evaluation path can prove it
// moved no plan. The grid covers the dual and augmented-Lagrangian solvers
// of C2/C3a and C3b, C4 and the tail solver on the canonical and heavy-db
// scenarios at quick solver budgets, plus the model itself on tandem,
// routing-chain and availability-degraded clusters.

var goldenAL = opt.AugLagOptions{OuterIters: 10, Inner: opt.NelderMeadOptions{MaxIters: 250}}

// goldenRetryCluster is the canonical scenario at 70% capacity with bronze
// retrying the app→db leg with probability 0.25.
func goldenRetryCluster() *cluster.Cluster {
	c := workload.CapacityFraction(workload.Enterprise3Tier(1), 0.7)
	tandem := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}},
	}
	retry := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0.25, 0}},
	}
	c.Routing = []*queueing.ClassRouting{tandem, tandem, retry}
	return c
}

// goldenDegraded is the canonical scenario with every tier 90% available.
func goldenDegraded() *cluster.Cluster {
	c := workload.Enterprise3Tier(1)
	for _, t := range c.Tiers {
		t.Availability = 0.9
	}
	return c
}

func hexFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%x", x)
	}
	return strings.Join(parts, ",")
}

func solutionKey(sol *Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("obj=%x speeds=%s evals=%d", sol.Objective, hexFloats(sol.Cluster.Speeds()), sol.Result.Evals)
}

func metricsKey(m *cluster.Metrics, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("delay=%s wd=%x power=%x static=%x dyn=%x epr=%s epj=%x",
		hexFloats(m.Delay), m.WeightedDelay, m.TotalPower, m.StaticPower, m.DynamicPower,
		hexFloats(m.EnergyPerRequest), m.EnergyPerJob)
}

type goldenCase struct {
	name string
	run  func() string
}

func goldenCases() []goldenCase {
	type scen struct {
		name string
		c    func() *cluster.Cluster
	}
	scens := []scen{
		{"e3t1.0", func() *cluster.Cluster { return workload.Enterprise3Tier(1) }},
		{"e3t1.2", func() *cluster.Cluster { return workload.Enterprise3Tier(1.2) }},
		{"heavydb", func() *cluster.Cluster { return workload.Enterprise3TierHeavyDB(1) }},
	}
	var cases []goldenCase
	add := func(name string, run func() string) { cases = append(cases, goldenCase{name, run}) }
	for _, s := range scens {
		s := s
		ref := func() *cluster.Metrics {
			m, err := cluster.Evaluate(s.c())
			if err != nil {
				panic(err)
			}
			return m
		}
		add(s.name+"/evaluate", func() string { return metricsKey(cluster.Evaluate(s.c())) })
		add(s.name+"/c3a-dual", func() string {
			return solutionKey(MinimizeEnergyDual(s.c(), EnergyOptions{MaxWeightedDelay: ref().WeightedDelay * 1.5}))
		})
		add(s.name+"/c2-dual", func() string {
			return solutionKey(MinimizeDelayDual(s.c(), DelayOptions{EnergyBudget: ref().TotalPower * 0.95}))
		})
		add(s.name+"/c3a-auglag", func() string {
			return solutionKey(MinimizeEnergy(s.c(), EnergyOptions{
				MaxWeightedDelay: ref().WeightedDelay * 1.5, Starts: 2, AugLag: goldenAL}))
		})
		add(s.name+"/c2-auglag", func() string {
			return solutionKey(MinimizeDelay(s.c(), DelayOptions{
				EnergyBudget: ref().TotalPower * 0.95, Starts: 2, AugLag: goldenAL}))
		})
		add(s.name+"/c3b", func() string {
			c := s.c()
			bounds := make([]float64, len(c.Classes))
			for k, cl := range c.Classes {
				bounds[k] = cl.SLA.MaxMeanDelay
			}
			return solutionKey(MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds, Starts: 2, AugLag: goldenAL}))
		})
		add(s.name+"/c3b-dual", func() string {
			c := s.c()
			return solutionKey(MinimizeEnergyPerClassDual(c, EnergyOptions{MaxClassDelay: slaBounds(c)}))
		})
	}
	add("e3t1.0/c4", func() string {
		return solutionKey(MinimizeCost(workload.Enterprise3Tier(1), CostOptions{Starts: 2, AugLag: goldenAL}))
	})
	add("e3t1.0/tail", func() string {
		bounds := []TailBound{{Delay: 4, Percentile: 0.95}, {Delay: 8, Percentile: 0.95}, {}}
		return solutionKey(MinimizeEnergyTail(workload.Enterprise3Tier(1), TailOptions{Bounds: bounds, Starts: 2, AugLag: goldenAL}))
	})
	add("retry/evaluate", func() string { return metricsKey(cluster.Evaluate(goldenRetryCluster())) })
	add("retry/c3a-dual", func() string {
		return solutionKey(MinimizeEnergyDual(goldenRetryCluster(), EnergyOptions{MaxWeightedDelay: 2.5}))
	})
	add("degraded/evaluate", func() string { return metricsKey(cluster.Evaluate(goldenDegraded())) })
	add("degraded/c3b", func() string {
		c := goldenDegraded()
		bounds := []float64{1.6, 3.0, 6.0}
		return solutionKey(MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds, Starts: 2, AugLag: goldenAL}))
	})
	add("degraded/c3b-dual", func() string {
		return solutionKey(MinimizeEnergyPerClassDual(goldenDegraded(), EnergyOptions{MaxClassDelay: []float64{1.6, 3.0, 6.0}}))
	})
	return cases
}

// solverGolden was captured before the analytic model was compiled (the
// c3b-dual entries when that solver was added); a difference in any bit of
// any entry is a behaviour change.
var solverGolden = map[string]string{
	"e3t1.0/evaluate":    "delay=0x1.c34ffc8d3582ap-01,0x1.36c61cd561fe8p+00,0x1.09cb0e6b91272p+01 wd=0x1.7d7fea87c0507p+00 power=0x1.76978d4fdf3b6p+09 static=0x1.4ap+09 dyn=0x1.64bc6a7ef9db2p+06 epr=0x1.028f5c28f5c29p+04,0x1.6666666666666p+04,0x1.fd70a3d70a3d7p+04 epj=0x1.a0369d0369d03p+07",
	"e3t1.0/c3a-dual":    "obj=0x1.69809c5220912p+09 speeds=0x1.5b5019ee2929fp+01,0x1.b2f7ac68722bap+01,0x1.c891a07d43b56p+01 evals=47",
	"e3t1.0/c2-dual":     "obj=0x1.8e5c8392ad124p+01 speeds=0x1.2bdb4b680de4cp+01,0x1.8bcd682ebd4e4p+01,0x1.a0f07f44db97bp+01 evals=49",
	"e3t1.0/c3a-auglag":  "obj=0x1.69809c4e33fcdp+09 speeds=0x1.5b501a28baf89p+01,0x1.b2f7ac034c922p+01,0x1.c891a07d289ccp+01 evals=3244",
	"e3t1.0/c2-auglag":   "obj=0x1.8e5c83211a81p+01 speeds=0x1.2bdb4b750793p+01,0x1.8bcd6853f071bp+01,0x1.a0f07f5ff041p+01 evals=2307",
	"e3t1.0/c3b":         "obj=0x1.621bcae4c6621p+09 speeds=0x1.161233ad136eep+01,0x1.7f49951acd4d6p+01,0x1.9502e55dc03a4p+01 evals=3137",
	"e3t1.0/c3b-dual":    "obj=0x1.621bcaf0f476ap+09 speeds=0x1.1612349ce5ed3p+01,0x1.7f499583d48bfp+01,0x1.9502e58ed2d0bp+01 evals=12",
	"e3t1.2/evaluate":    "delay=0x1.f852d24cbaba1p-01,0x1.66c12c99290ap+00,0x1.971b0b3491bd1p+01 wd=0x1.04f0a3e98f3c1p+01 power=0x1.7f82a9930be0ep+09 static=0x1.4ap+09 dyn=0x1.ac154c985f06fp+06 epr=0x1.028f5c28f5c29p+04,0x1.6666666666666p+04,0x1.fd70a3d70a3d7p+04 epj=0x1.631a2b3c4d5e7p+07",
	"e3t1.2/c3a-dual":    "obj=0x1.7354c1fed63e9p+09 speeds=0x1.528382ee6d739p+01,0x1.c9a8d417f47ddp+01,0x1.e2b11f97c54f1p+01 evals=45",
	"e3t1.2/c2-dual":     "obj=0x1.521b8538a65dp+02 speeds=0x1.2262ea8fece9dp+01,0x1.a3474ab494534p+01,0x1.bb6be39bda389p+01 evals=52",
	"e3t1.2/c3a-auglag":  "obj=0x1.7354c1e0c9824p+09 speeds=0x1.528382e6d97b2p+01,0x1.c9a8d32c7e27bp+01,0x1.e2b11ef8b356cp+01 evals=2636",
	"e3t1.2/c2-auglag":   "obj=0x1.521b84b2a341fp+02 speeds=0x1.2262ee1706d32p+01,0x1.a3474fe1346a6p+01,0x1.bb6bdf24c518cp+01 evals=2157",
	"e3t1.2/c3b":         "obj=0x1.712d6b77b115ep+09 speeds=0x1.3ee61a9f082ffp+01,0x1.beac7ab998d3bp+01,0x1.d827d0f98df92p+01 evals=3084",
	"e3t1.2/c3b-dual":    "obj=0x1.712d6bb15c07fp+09 speeds=0x1.3ee61c3746a39p+01,0x1.beac7bfa35aabp+01,0x1.d827d22b25861p+01 evals=12",
	"heavydb/evaluate":   "delay=0x1.c34ffc8d3582ap-01,0x1.36c61cd561fe8p+00,0x1.09cb0e6b91272p+01 wd=0x1.7d7fea87c0507p+00 power=0x1.0389374bc6a7fp+10 static=0x1.4ap+09 dyn=0x1.7a24dd2f1a9fcp+08 epr=0x1.e7ae147ae147bp+05,0x1.6666666666666p+06,0x1.1fae147ae147bp+07 epj=0x1.205f92c5f92c6p+08",
	"heavydb/c3a-dual":   "obj=0x1.cdf6f2830335cp+09 speeds=0x1.c749a50058c85p+01,0x1.074e0ba7b796dp+02,0x1.9fbe275042229p+02 evals=48",
	"heavydb/c2-dual":    "obj=0x1.9c6d638186dcap+00 speeds=0x1.18f0253d0123p+02,0x1.35a8eac08a492p+02,0x1.c6bb0e372656dp+02 evals=43",
	"heavydb/c3a-auglag": "obj=0x1.cdf6f27dbd98bp+09 speeds=0x1.c749a51dee0bap+01,0x1.074e0badf31e6p+02,0x1.9fbe27430ea26p+02 evals=3522",
	"heavydb/c2-auglag":  "obj=0x1.9c6d6314275e6p+00 speeds=0x1.18f027183144ap+02,0x1.35a8e98290c1cp+02,0x1.c6bb0e84d632ep+02 evals=1400",
	"heavydb/c3b":        "obj=0x1.b5a313cc6d588p+09 speeds=0x1.5100611e7a209p+01,0x1.b4a2ace89b96cp+01,0x1.7f99f5bb4571p+02 evals=3551",
	"heavydb/c3b-dual":   "obj=0x1.b5a313ef7f383p+09 speeds=0x1.5100622f4a51bp+01,0x1.b4a2ad346daabp+01,0x1.7f99f5ef856c3p+02 evals=13",
	"e3t1.0/c4":          "obj=0x1.cp+02 speeds=0x1.133dfc69521a8p+02,0x1.7cc0bdde6343p+02,0x1.926863abb2266p+02 evals=1",
	"e3t1.0/tail":        "obj=0x1.5c879044c9844p+09 speeds=0x1.26321ec9cf658p+01,0x1.5b36b8e542feap+01,0x1.4a91fb3fa6defp+01 evals=3296",
	"retry/evaluate":     "delay=0x1.06e52515ac192p+00,0x1.6faa3c749e13p+00,0x1.50e7a6e3a05f7p+02 wd=0x1.76e4b9c92ad5ep+01 power=0x1.8183884b91d22p+09 static=0x1.4ap+09 dyn=0x1.bc1c425c8e90dp+06 epr=0x1.028f5c28f5c29p+04,0x1.6666666666666p+04,0x1.44b17e4b17e4ap+05 epj=0x1.8ab154aee487fp+07",
	"retry/c3a-dual":     "obj=0x1.822bfca042138p+09 speeds=0x1.745c3891b69cfp+01,0x1.02874b218e6fep+02,0x1.14fa8fb3d9dcfp+02 evals=47",
	"degraded/evaluate":  "delay=0x1.0aa84b2434722p+00,0x1.753bbb7d5ce14p+00,0x1.6c223068829a4p+01 wd=0x1.ee852449ee3d8p+00 power=0x1.55978d4fdf3b6p+09 static=0x1.29p+09 dyn=0x1.64bc6a7ef9db2p+06 epr=0x1.028f5c28f5c29p+04,0x1.6666666666666p+04,0x1.fd70a3d70a3d7p+04 epj=0x1.7b8bf258bf258p+07",
	"degraded/c3b":       "obj=0x1.46c37f2926e8bp+09 speeds=0x1.34f7c7a324dap+01,0x1.a9dffb0b32662p+01,0x1.c20336c84f23cp+01 evals=3047",
	"degraded/c3b-dual":  "obj=0x1.46c37f49437fcp+09 speeds=0x1.34f7c8dfa7748p+01,0x1.a9dffb6b41799p+01,0x1.c20337f084e99p+01 evals=13",
}

func TestSolverGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		got := gc.run()
		want, ok := solverGolden[gc.name]
		if !ok {
			t.Errorf("%q: %q, (no golden)", gc.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s:\n got  %s\n want %s", gc.name, got, want)
		}
	}
}
