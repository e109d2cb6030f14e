package sim

import (
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// powerModelCluster is a two-tier, two-class cluster whose tiers draw power
// through the two non-power-law models: tier 0 is Linear, tier 1 a *Table
// whose points lie inside the tier's DVFS range, so a retune can land on an
// interpolated segment or past either clamped end.
func powerModelCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	tab, err := power.NewTable(60, []float64{0.5, 1, 1.5, 2, 3}, []float64{70, 90, 118, 155, 240})
	if err != nil {
		t.Fatal(err)
	}
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{
			{Name: "lin", Servers: 3, Speed: 1.2, MinSpeed: 0.4, MaxSpeed: 2.5,
				Discipline: queueing.NonPreemptive, Power: power.Linear{Idle: 80, Slope: 30},
				Demands: []queueing.Demand{{Work: 0.8, CV2: 1}, {Work: 1.1, CV2: 1.5}}},
			{Name: "tab", Servers: 2, Speed: 1.4, MinSpeed: 0.3, MaxSpeed: 3.5,
				Discipline: queueing.PreemptiveResume, Power: tab,
				Demands: []queueing.Demand{{Work: 0.6, CV2: 1}, {Work: 0.9, CV2: 2}}},
		},
		Classes: []cluster.Class{{Name: "hi", Lambda: 0.9}, {Name: "lo", Lambda: 1.1}},
	}
}

// parkingPolicy retunes every tier by the reactive utilization rule and, on
// tiers with spare capacity, parks one server while the epoch's utilization
// is low and unparks it once load returns. It reads only the observation, so
// it is stateless.
type parkingPolicy struct{ UtilizationPolicy }

func (parkingPolicy) Name() string { return "reactive+park" }

func (p parkingPolicy) DecidePlan(obs PlanObservation) PlanDecision {
	d := p.UtilizationPolicy.DecidePlan(obs)
	d.Servers = make([]int, len(obs.Stations))
	for j, o := range obs.Stations {
		d.Servers[j] = o.Servers
		if o.Servers > 1 && o.Utilization < 0.45 {
			d.Servers[j] = o.Servers - 1
		}
	}
	return d
}

// TestPowerModelsGolden pins the simulator's energy accounting on the
// Linear and *Table power models, which no other golden here runs: a
// retuning run (utilization-target DVFS with parking through a plan
// controller) and a sleep-state run (instant-off on both tiers, retuned by
// the reactive policy). Per-tier power, per-class energy and the probe's
// sampled power readings all go through the hashes, which were recorded
// while every power reading still called the model at the station's speed.
func TestPowerModelsGolden(t *testing.T) {
	cases := []struct {
		name                   string
		opts                   Options
		goldenRes, goldenTline string
	}{
		{
			name: "retune+park",
			opts: Options{
				Horizon: 4000, Replications: 1, Seed: 29,
				PlanController: parkingPolicy{UtilizationPolicy{Target: 0.6}}, ControlPeriod: 30,
				Probe: &Probe{Period: 40},
			},
			goldenRes:   "ce27ae5f00cc522c60ad0742635d5e8b73c8a276abc2252c6dd57a980db8ced1",
			goldenTline: "67ca204a9c1d215d22b4224e3f50a3e4265931165176d939782430af85d3bbcb",
		},
		{
			name: "sleep",
			opts: Options{
				Horizon: 4000, Replications: 2, Seed: 31,
				Controller: UtilizationPolicy{Target: 0.65}, ControlPeriod: 45,
				Sleep: []*SleepConfig{
					{Setup: queueing.NewExponential(0.4), SleepPower: 8},
					{Setup: queueing.NewDeterministic(0.3), SleepPower: 5},
				},
				Probe: &Probe{Period: 40},
			},
			goldenRes:   "5915a271b31a9842d286c0a89dbf2e1836f9d89f4365ee81cbf8f1bd690542d9",
			goldenTline: "bd04c678f76a860deda9cea3c0b23409ac7b10ef61a188bd39644878c4318e89",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, powerModelCluster(t), tc.opts)
			if res.EventCounts[TraceRetune] == 0 {
				t.Errorf("scenario no longer retunes: %v", res.EventCounts)
			}
			if tc.opts.PlanController != nil && res.EventCounts[TracePark] == 0 {
				t.Errorf("scenario no longer parks: %v", res.EventCounts)
			}
			if tc.opts.Sleep != nil && res.EventCounts[TraceSetupBegin] == 0 {
				t.Errorf("scenario no longer sleeps: %v", res.EventCounts)
			}
			if got := hashResult(res, nil); got != tc.goldenRes {
				t.Errorf("Result hash drifted:\n got %s\nwant %s", got, tc.goldenRes)
			}
			if got := hashTimeline(res.Timeline); got != tc.goldenTline {
				t.Errorf("Timeline hash drifted:\n got %s\nwant %s", got, tc.goldenTline)
			}
		})
	}
}
