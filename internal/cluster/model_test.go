package cluster

import (
	"math"
	"strings"
	"testing"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// mixedCluster is a 3-tier, 3-class cluster exercising every service family
// (deterministic, Erlang, exponential, hyperexponential), a multi-server
// tier and a routing chain with a retry loop (bronze replays app after db
// with probability 0.3, as in E18).
func mixedCluster() *Cluster {
	pm, _ := power.NewPowerLaw(90, 0.4, 3)
	c := &Cluster{
		Tiers: []*Tier{
			{Name: "web", Servers: 2, Speed: 4, MinSpeed: 1, MaxSpeed: 8,
				Discipline: queueing.NonPreemptive, Power: pm,
				Demands: []queueing.Demand{{Work: 0.6, CV2: 0}, {Work: 0.8, CV2: 0.5}, {Work: 1, CV2: 1}}},
			{Name: "app", Servers: 1, Speed: 4, MinSpeed: 1, MaxSpeed: 8,
				Discipline: queueing.NonPreemptive, Power: pm,
				Demands: []queueing.Demand{{Work: 0.5, CV2: 1}, {Work: 0.7, CV2: 0.3}, {Work: 0.9, CV2: 2}}},
			{Name: "db", Servers: 3, Speed: 4, MinSpeed: 1, MaxSpeed: 8,
				Discipline: queueing.NonPreemptive, Power: pm,
				Demands: []queueing.Demand{{Work: 0.8, CV2: 2}, {Work: 1.2, CV2: 4}, {Work: 2, CV2: 1.5}}},
		},
		Classes: []Class{
			{Name: "gold", Lambda: 0.9}, {Name: "silver", Lambda: 1.1}, {Name: "bronze", Lambda: 1.3},
		},
	}
	tandem := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}},
	}
	retry := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0.3, 0}},
	}
	c.Routing = []*queueing.ClassRouting{tandem, tandem, retry}
	return c
}

// modelCases are the cluster shapes the compiled model must reproduce
// exactly.
func modelCases() map[string]func() *Cluster {
	return map[string]func() *Cluster{
		"tandem":        testCluster,
		"routing chain": mixedCluster,
		"availability": func() *Cluster {
			c := mixedCluster()
			for j, t := range c.Tiers {
				t.Availability = 0.8 + 0.05*float64(j)
			}
			return c
		},
		"fcfs": func() *Cluster {
			c := mixedCluster()
			for _, t := range c.Tiers {
				t.Discipline = queueing.FCFS
			}
			return c
		},
		"preemptive single-server": func() *Cluster {
			c := testCluster()
			for _, t := range c.Tiers {
				t.Discipline = queueing.PreemptiveResume
			}
			c.Tiers[1].Demands[1].CV2 = 3
			return c
		},
		"multi-server": func() *Cluster {
			c := testCluster()
			for j, t := range c.Tiers {
				t.Servers = 2 + j
			}
			return c
		},
		"deterministic routes with revisits": func() *Cluster {
			c := testCluster()
			c.Routes = [][]int{{0, 1, 2}, {0, 1, 0, 2}}
			return c
		},
	}
}

// TestEvaluateAtMatchesNetwork checks the compiled model against the
// queueing network, the reference oracle: delays, waits and utilizations
// must be bit-identical at every probed speed vector.
func TestEvaluateAtMatchesNetwork(t *testing.T) {
	for name, mk := range modelCases() {
		c := mk()
		md, err := Compile(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := md.NewMetrics()
		for _, f := range []float64{1, 1.25, 1.5, 2} {
			speeds := make([]float64, len(c.Tiers))
			for j := range speeds {
				speeds[j] = f * (3 + float64(j)*0.5)
			}
			if err := md.EvaluateAt(speeds, m); err != nil {
				t.Fatalf("%s at %v: %v", name, speeds, err)
			}
			if err := c.SetSpeeds(speeds); err != nil {
				t.Fatal(err)
			}
			net := c.Network()
			bd, err := net.EndToEndDelays(c.Lambdas())
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			arr := c.TierArrivals()
			for k := range c.Classes {
				if m.Delay[k] != bd.EndToEnd[k] {
					t.Errorf("%s at %v: class %d delay %x, network %x", name, speeds, k, m.Delay[k], bd.EndToEnd[k])
				}
				for j := range c.Tiers {
					if m.Breakdown.PerStation[k][j] != bd.PerStation[k][j] || m.Breakdown.Wait[k][j] != bd.Wait[k][j] {
						t.Errorf("%s at %v: class %d tier %d response/wait differ from the network", name, speeds, k, j)
					}
				}
			}
			for j := range c.Tiers {
				if u := net.Stations[j].Utilization(arr[j]); m.Tiers[j].Utilization != u {
					t.Errorf("%s at %v: tier %d utilization %x, station %x", name, speeds, j, m.Tiers[j].Utilization, u)
				}
			}
			if math.IsInf(m.Delay[0], 0) {
				t.Errorf("%s at %v: probe grid should be stable", name, speeds)
			}
		}
	}
}

// TestEvaluateMatchesEvaluateAt pins the one-path rule: Evaluate is Compile
// plus EvaluateAt, so a reused workspace and a fresh one agree exactly.
func TestEvaluateMatchesEvaluateAt(t *testing.T) {
	for name, mk := range modelCases() {
		c := mk()
		md, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		m := md.NewMetrics()
		// Dirty the workspace at another point first.
		if err := md.EvaluateAt(c.Speeds(), m); err != nil {
			t.Fatal(err)
		}
		other := c.Speeds()
		for j := range other {
			other[j] *= 1.3
		}
		if err := md.EvaluateAt(other, m); err != nil {
			t.Fatal(err)
		}
		if err := md.EvaluateAt(c.Speeds(), m); err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		if m.WeightedDelay != want.WeightedDelay || m.TotalPower != want.TotalPower ||
			m.StaticPower != want.StaticPower || m.DynamicPower != want.DynamicPower {
			t.Errorf("%s: reused workspace differs from a fresh Evaluate", name)
		}
		for k := range want.Delay {
			if m.Delay[k] != want.Delay[k] || m.EnergyPerRequest[k] != want.EnergyPerRequest[k] {
				t.Errorf("%s: class %d differs from a fresh Evaluate", name, k)
			}
		}
		// Tier by tier, power read through TierPower matches the breakdown.
		for j := range c.Tiers {
			s := c.Tiers[j].Speed
			p := md.TierPower(j, s, m.Tiers[j].Utilization)
			if !almostEq(p, m.Tiers[j].Power.Total(), 1e-12) {
				t.Errorf("%s: tier %d TierPower %g != breakdown total %g", name, j, p, m.Tiers[j].Power.Total())
			}
		}
	}
}

// TestTierPowerMatchesStationPowerWhenAlwaysUp pins the dual's bit-identity
// contract: at availability 1 the model's tier power is power.StationPower.
func TestTierPowerMatchesStationPowerWhenAlwaysUp(t *testing.T) {
	c := mixedCluster()
	md, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	m := md.NewMetrics()
	for j, tier := range c.Tiers {
		for _, s := range []float64{1.5, 4, 7.5} {
			if err := md.EvaluateTier(j, s, m); err != nil {
				t.Fatal(err)
			}
			rho := m.Tiers[j].Utilization
			if got, want := md.TierPower(j, s, rho), power.StationPower(tier.Power, s, tier.Servers, rho); got != want {
				t.Errorf("tier %d at %g: TierPower %x, StationPower %x", j, s, got, want)
			}
		}
	}
}

func TestEvaluateAtZeroAlloc(t *testing.T) {
	for _, name := range []string{"tandem", "routing chain"} {
		c := modelCases()[name]()
		md, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		m := md.NewMetrics()
		speeds := c.Speeds()
		if n := testing.AllocsPerRun(100, func() {
			if err := md.EvaluateAt(speeds, m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: EvaluateAt makes %g allocs per call, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := md.EvaluateTier(1, speeds[1], m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: EvaluateTier makes %g allocs per call, want 0", name, n)
		}
	}
}

func TestEvaluateAtRejectsBadInput(t *testing.T) {
	c := testCluster()
	md, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	m := md.NewMetrics()
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if err := md.EvaluateAt([]float64{4, s, 4}, m); err == nil {
			t.Errorf("speed %g accepted", s)
		}
		if err := md.EvaluateTier(1, s, m); err == nil {
			t.Errorf("EvaluateTier: speed %g accepted", s)
		}
	}
	// Outside the configured [0.5, 10] DVFS range.
	for _, s := range []float64{0.1, 11} {
		if err := md.EvaluateAt([]float64{4, s, 4}, m); err == nil {
			t.Errorf("out-of-range speed %g accepted", s)
		}
	}
	if err := md.EvaluateAt([]float64{4, 4}, m); err == nil {
		t.Error("short speed vector accepted")
	}
	if err := md.EvaluateTier(3, 4, m); err == nil {
		t.Error("tier index out of range accepted")
	}
	other, err := Compile(testCluster())
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range []*Metrics{nil, other.NewMetrics(), {}} {
		if err := md.EvaluateAt([]float64{4, 4, 4}, ws); err == nil {
			t.Errorf("foreign workspace %p accepted", ws)
		}
	}
	short := md.NewMetrics()
	short.Delay = short.Delay[:1]
	if err := md.EvaluateAt([]float64{4, 4, 4}, short); err == nil {
		t.Error("resliced workspace accepted")
	}
}

// TestEvaluateRejectsInfiniteSpeed is the regression test for a panic:
// Validate accepts an infinite speed when no MaxSpeed bounds it, and the
// service distribution of mean work/Inf = 0 used to panic.
func TestEvaluateRejectsInfiniteSpeed(t *testing.T) {
	c := testCluster()
	for _, tier := range c.Tiers {
		tier.MaxSpeed = 0
	}
	c.Tiers[2].Speed = math.Inf(1)
	if _, err := Evaluate(c); err == nil || !strings.Contains(err.Error(), "db") {
		t.Errorf("infinite speed: got %v, want an error naming the tier", err)
	}
}

// TestCompileIsolatedFromCluster checks the model shares nothing mutable
// with the cluster it was compiled from.
func TestCompileIsolatedFromCluster(t *testing.T) {
	c := mixedCluster()
	md, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	want := md.NewMetrics()
	if err := md.EvaluateAt(c.Speeds(), want); err != nil {
		t.Fatal(err)
	}
	c.Classes[0].Lambda *= 2
	c.Tiers[1].Demands[0].Work *= 3
	c.Tiers[2].Servers = 1
	c.Routing[2].Next[2][1] = 0.6
	got := md.NewMetrics()
	if err := md.EvaluateAt(c.Speeds(), got); err != nil {
		t.Fatal(err)
	}
	for k := range want.Delay {
		if got.Delay[k] != want.Delay[k] {
			t.Errorf("class %d delay moved from %g to %g after the cluster changed", k, want.Delay[k], got.Delay[k])
		}
	}
}

func TestCompileRejectsInvalidCV2(t *testing.T) {
	for _, cv2 := range []float64{math.NaN(), math.Inf(1), -1} {
		c := testCluster()
		c.Tiers[0].Demands[1].CV2 = cv2
		if _, err := Compile(c); err == nil {
			t.Errorf("CV² %g accepted", cv2)
		}
	}
}

// FuzzEvaluateAt drives the model with arbitrary speed vectors, through
// both EvaluateAt and Evaluate on the cluster. The property: no panic, and
// either an error or metrics without a NaN.
func FuzzEvaluateAt(f *testing.F) {
	for _, seed := range [][3]float64{
		{4, 4, 4}, {1, 1, 1}, {0, 4, 4}, {-1, 4, 4}, {math.Inf(1), 4, 4},
		{math.NaN(), 4, 4}, {1e-300, 4, 4}, {1e300, 4, 4}, {5e-324, 1e308, 4},
		{1e160, 1e160, 1e160}, {1e-160, 4, 4},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	c := mixedCluster()
	for _, t := range c.Tiers {
		t.MinSpeed, t.MaxSpeed = 0, 0 // no range check: every speed reaches the arithmetic
	}
	md, err := Compile(c)
	if err != nil {
		f.Fatal(err)
	}
	m := md.NewMetrics()
	f.Fuzz(func(t *testing.T, a, b, s float64) {
		speeds := []float64{a, b, s}
		if err := md.EvaluateAt(speeds, m); err == nil {
			checkNoNaN(t, speeds, m)
		}
		cc := c.Clone()
		if err := cc.SetSpeeds(speeds); err != nil {
			t.Fatal(err)
		}
		if got, err := Evaluate(cc); err == nil {
			checkNoNaN(t, speeds, got)
		}
	})
}

func checkNoNaN(t *testing.T, speeds []float64, m *Metrics) {
	t.Helper()
	vals := []float64{m.WeightedDelay, m.TotalPower, m.StaticPower, m.DynamicPower, m.EnergyPerJob}
	vals = append(vals, m.Delay...)
	vals = append(vals, m.EnergyPerRequest...)
	for _, tm := range m.Tiers {
		vals = append(vals, tm.Utilization, tm.Power.Static, tm.Power.Dynamic)
	}
	for _, row := range m.Breakdown.PerStation {
		vals = append(vals, row...)
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			t.Fatalf("speeds %v: metric %d is NaN without an error", speeds, i)
		}
	}
}
