package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// scriptedPlan replays fuzzer-chosen decisions: each epoch it returns a
// speed vector of nSpeeds entries and a server vector of nServers entries,
// filled by rotating through the given values, so one input probes many
// decisions, including vectors shorter or longer than the tier list.
type scriptedPlan struct {
	speeds            []float64
	servers           []int
	nSpeeds, nServers int
	epochs            int
}

func (*scriptedPlan) Name() string { return "scripted" }

func (p *scriptedPlan) DecidePlan(PlanObservation) PlanDecision {
	p.epochs++
	d := PlanDecision{Speeds: make([]float64, p.nSpeeds), Servers: make([]int, p.nServers)}
	for j := range d.Speeds {
		d.Speeds[j] = p.speeds[(p.epochs+j)%len(p.speeds)]
	}
	for j := range d.Servers {
		d.Servers[j] = p.servers[(p.epochs+j)%len(p.servers)]
	}
	return d
}

// FuzzPlanDecision drives the plan decision path with arbitrary speed and
// server vectors: NaN, ±Inf, zero, negative, huge, too short and too long.
// The cluster's three tiers draw power through the Linear, *Table and
// PowerLaw models (the last with the default DVFS clamp range); mode bit 0
// adds sleep on tier 1 and bit 1 breakdowns on tier 0. After every epoch no
// speed leaves its clamp range, the parked count stays below the configured
// pool, the cached busy and idle draws equal the model at the current speed,
// and the instantaneous power is finite and non-negative. The replication
// must run every epoch up to its horizon.
func FuzzPlanDecision(f *testing.F) {
	f.Add(1.5, 0.8, 2.0, 2, 1, uint8(3), uint8(3), uint8(0))
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, uint8(3), uint8(3), uint8(1))
	f.Add(0.0, -2.5, 1e308, math.MaxInt, math.MinInt, uint8(5), uint8(5), uint8(2))
	f.Add(1e-300, math.MaxFloat64, -0.0, 1, 99, uint8(1), uint8(0), uint8(3))
	f.Add(math.Inf(1), 3.0, math.NaN(), 3, 0, uint8(0), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, s0, s1, s2 float64, n0, n1 int, nSpeeds, nServers, mode uint8) {
		const (
			period  = 25.0
			horizon = 500.0
		)
		c := powerModelCluster(t)
		pm, _ := power.NewPowerLaw(100, 10, 2.5)
		c.Tiers = append(c.Tiers, &cluster.Tier{Name: "pow", Servers: 2, Speed: 1.5,
			Discipline: queueing.FCFS, Power: pm,
			Demands: []queueing.Demand{{Work: 0.5, CV2: 1}, {Work: 0.7, CV2: 1}}})
		plan := &scriptedPlan{
			speeds: []float64{s0, s1, s2}, servers: []int{n0, n1},
			nSpeeds: int(nSpeeds % 6), nServers: int(nServers % 6),
		}
		o := Options{Horizon: horizon, PlanController: plan, ControlPeriod: period, Warmup: ZeroWarmup}
		if mode&1 != 0 {
			o.Sleep = []*SleepConfig{nil, {Setup: queueing.NewExponential(0.3), SleepPower: 4}, nil}
		}
		if mode&2 != 0 {
			o.Failures = []*FailureConfig{{MTBF: 80, MTTR: 8}, nil, nil}
		}
		rep, err := NewReplication(c, o, 7)
		if err != nil {
			t.Fatal(err)
		}
		check := func(epoch int) {
			for _, st := range rep.s.stations {
				if !(st.speed >= st.minSpeed && st.speed <= st.maxSpeed) {
					t.Fatalf("epoch %d tier %d: speed %g outside [%g, %g]", epoch, st.idx, st.speed, st.minSpeed, st.maxSpeed)
				}
				if st.parked < 0 || st.parked >= st.servers {
					t.Fatalf("epoch %d tier %d: %d of %d servers parked", epoch, st.idx, st.parked, st.servers)
				}
				if b, i := st.pm.BusyPower(st.speed), st.pm.IdlePower(st.speed); st.busyW != b || st.idleW != i {
					t.Fatalf("epoch %d tier %d: cached draws (%g, %g) at speed %g, model says (%g, %g)",
						epoch, st.idx, st.busyW, st.idleW, st.speed, b, i)
				}
				if p := st.instPower(); !(p >= 0) || math.IsInf(p, 1) {
					t.Fatalf("epoch %d tier %d: instantaneous power %g", epoch, st.idx, p)
				}
			}
		}
		check(0)
		for k := 1; float64(k)*period <= horizon; k++ {
			rep.AdvanceTo(float64(k) * period)
			if plan.epochs != k {
				t.Fatalf("after advancing to t=%g: %d epochs ran, want %d", float64(k)*period, plan.epochs, k)
			}
			check(k)
		}
		rep.Run()
		if next, ok := rep.PeekNextEventTime(); !ok || !(next > horizon) {
			t.Fatalf("replication stopped short of its horizon: next event at %g (pending %v)", next, ok)
		}
		res, err := rep.Result()
		if err != nil {
			t.Fatal(err)
		}
		if p := res.TotalPower.Mean; !(p >= 0) || math.IsInf(p, 1) {
			t.Fatalf("total power %g", p)
		}
	})
}
