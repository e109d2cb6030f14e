package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// TestQueueGainSentinel pins the zero-vs-unset fix: QueueGain's zero value
// means "unset, use the default", and disabling the queue-pressure boost
// takes the explicit ZeroQueueGain sentinel — exactly the ZeroWarmup
// convention. Before the fix an explicit 0 silently became the default 0.1,
// so the boost could not be turned off at all.
func TestQueueGainSentinel(t *testing.T) {
	if got := (UtilizationPolicy{}).queueGain(); got != 0.1 {
		t.Errorf("unset QueueGain = %g, want default 0.1", got)
	}
	if got := (UtilizationPolicy{QueueGain: ZeroQueueGain}.queueGain()); got != 0 {
		t.Errorf("ZeroQueueGain = %g, want boost disabled (0)", got)
	}
	if got := (UtilizationPolicy{QueueGain: -3}.queueGain()); got != 0 {
		t.Errorf("negative QueueGain = %g, want boost disabled (0)", got)
	}
	if got := (UtilizationPolicy{QueueGain: 0.3}.queueGain()); got != 0.3 {
		t.Errorf("explicit QueueGain = %g, want 0.3", got)
	}

	// Decision-level regression: with a long queue the boost must be fully
	// inert under ZeroQueueGain — the decision collapses to the pure
	// utilization step (util 1.0 at target 0.5, gain 1 ⇒ double the speed).
	obs := Observation{Utilization: 1, Speed: 2, Servers: 2, QueueLen: 50,
		MinSpeed: 0.1, MaxSpeed: 100}
	boosted := UtilizationPolicy{Target: 0.5, Gain: 1}.nextSpeed(obs)
	flat := UtilizationPolicy{Target: 0.5, Gain: 1, QueueGain: ZeroQueueGain}.nextSpeed(obs)
	if !almostEq(flat, 4, 1e-9) {
		t.Errorf("ZeroQueueGain decision = %g, want pure utilization step 4", flat)
	}
	if !(boosted > flat) {
		t.Errorf("default boost %g not above disabled boost %g", boosted, flat)
	}
}

// TestUtilizationPolicyNonFiniteParams pins that a NaN Target, Gain or
// QueueGain, and a +Inf QueueGain, select the default like the unset zero
// value: each once passed every range check and made the decision NaN.
func TestUtilizationPolicyNonFiniteParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	obs := Observation{Utilization: 0.9, Speed: 2, Servers: 2, QueueLen: 6,
		MinSpeed: 0.5, MaxSpeed: 8}
	want := UtilizationPolicy{}.nextSpeed(obs)
	for _, tc := range []struct {
		name string
		p    UtilizationPolicy
	}{
		{"NaN Target", UtilizationPolicy{Target: nan}},
		{"+Inf Target", UtilizationPolicy{Target: inf}},
		{"NaN Gain", UtilizationPolicy{Gain: nan}},
		{"+Inf Gain", UtilizationPolicy{Gain: inf}},
		{"NaN QueueGain", UtilizationPolicy{QueueGain: nan}},
		{"+Inf QueueGain", UtilizationPolicy{QueueGain: inf}},
	} {
		p := tc.p
		if p.target() != 0.7 || p.gain() != 0.5 || p.queueGain() != 0.1 {
			t.Errorf("%s: parameters (%g, %g, %g), want defaults (0.7, 0.5, 0.1)",
				tc.name, p.target(), p.gain(), p.queueGain())
		}
		d := p.DecidePlan(PlanObservation{Stations: []Observation{obs}})
		if len(d.Speeds) != 1 || d.Speeds[0] != want {
			t.Errorf("%s: decision %v, want the default policy's [%g]", tc.name, d.Speeds, want)
		}
	}
}

// nanPolicy is a broken shared controller that asks every station for a NaN
// speed — the shape a divide-by-zero inside a user policy produces.
type nanPolicy struct{}

func (nanPolicy) Name() string { return "nan" }
func (nanPolicy) stateless()   {}
func (nanPolicy) DecidePlan(obs PlanObservation) PlanDecision {
	speeds := make([]float64, len(obs.Stations))
	for j := range speeds {
		speeds[j] = math.NaN()
	}
	return PlanDecision{Speeds: speeds}
}

// TestNaNControllerDecisionHolds pins the NaN rule on the one decision path.
// A NaN speed passes both clamp comparisons (NaN<min and NaN>max are both
// false), so unguarded it would reach setSpeed, poison every departure time
// at the station, and silently end the run at the first control epoch (a NaN
// event time fails the `t <= horizon` pending check). A NaN speed holds the
// current one instead: across two replications under breakdowns, where the
// repair path reschedules work at the held speed, there is no retune, the
// run completes the full horizon, and every statistic stays finite.
func TestNaNControllerDecisionHolds(t *testing.T) {
	c := oneTier(2, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.2}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	o := Options{
		Horizon: 4000, Replications: 2, Seed: 7,
		Controller: nanPolicy{}, ControlPeriod: 25,
		Failures: []*FailureConfig{{MTBF: 50, MTTR: 5}},
		Probe:    &Probe{Period: 100},
	}
	res, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity (speed 1 on two servers) is far above the offered 0.2 work/s:
	// the run must deliver roughly λ·horizon·reps completions, not the
	// handful that fit before the first control epoch.
	if want := int64(0.2 * 4000 * 2 / 2); res.Completed[0] < want {
		t.Errorf("completions %d < %d: NaN decision wedged the run early", res.Completed[0], want)
	}
	if math.IsNaN(res.Delay[0].Mean) || math.IsNaN(res.TotalPower.Mean) {
		t.Errorf("NaN leaked into results: delay %g power %g", res.Delay[0].Mean, res.TotalPower.Mean)
	}
	if n := res.EventCounts[TraceRetune]; n != 0 {
		t.Errorf("%d retune events: a NaN decision must hold the current speed", n)
	}
}
