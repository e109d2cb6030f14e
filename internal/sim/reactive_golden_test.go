package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// reactiveReplica is one replica in the shape of the observed fleet benchmark:
// a three-tier, three-class cluster running the reactive UtilizationPolicy
// with breakdowns on every tier, deadlines with retries, priority shedding,
// a window set and the flight recorder attached.
func reactiveReplica(t *testing.T) (*cluster.Cluster, Options) {
	t.Helper()
	pm, _ := power.NewPowerLaw(120, 15, 2.5)
	demands := func(w float64) []queueing.Demand {
		return []queueing.Demand{{Work: w, CV2: 1}, {Work: 1.2 * w, CV2: 1.5}, {Work: 1.5 * w, CV2: 1}}
	}
	c := &cluster.Cluster{
		Tiers: []*cluster.Tier{
			{Name: "web", Servers: 3, Speed: 2, MinSpeed: 0.8, MaxSpeed: 4,
				Discipline: queueing.NonPreemptive, Power: pm, Demands: demands(0.5)},
			{Name: "app", Servers: 2, Speed: 1.8, MinSpeed: 0.7, MaxSpeed: 3.6,
				Discipline: queueing.PreemptiveResume, Power: pm, Demands: demands(0.6)},
			{Name: "db", Servers: 2, Speed: 1.6, MinSpeed: 0.6, MaxSpeed: 3.2,
				Discipline: queueing.NonPreemptive, Power: pm, Demands: demands(0.5)},
		},
		Classes: []cluster.Class{
			{Name: "gold", Lambda: 0.9}, {Name: "silver", Lambda: 1.1}, {Name: "bronze", Lambda: 1.3},
		},
	}
	w, err := window.NewSet(window.Config{Width: 250}, len(c.Classes), len(c.Tiers))
	if err != nil {
		t.Fatal(err)
	}
	failures := make([]*FailureConfig, len(c.Tiers))
	for j := range failures {
		failures[j] = &FailureConfig{MTBF: 10, MTTR: 10 * 0.1 / 0.9}
	}
	return c, Options{
		Horizon: 6000, Replications: 1, Seed: 23,
		Controller: UtilizationPolicy{Target: 0.6}, ControlPeriod: 25,
		Failures: failures,
		Deadlines: []*DeadlineConfig{
			{Deadline: 8, MaxRetries: 2, RetryBackoff: 0.5},
			{Deadline: 10, MaxRetries: 1, RetryBackoff: 1},
			{Deadline: 12},
		},
		Shedding: &SheddingConfig{Threshold: 0.92, Period: 25},
		Recorder: trace.NewRecorder(1 << 14),
		Windows:  w,
		Probe:    &Probe{Period: 50},
	}
}

// TestReactiveReplicaGolden pins the reactive DVFS path bit for bit in the
// observed-fleet replica shape, both as a closed run and advanced in slices
// the way the fleet orchestrator drives it: the Result (with the degraded-mode
// counters and EventCounts), the recorder's event ring and its per-class
// breakdown. The hashes were recorded while the reactive policy still ran
// through its own per-station epoch path; a drift means the one plan-level
// decision path no longer reproduces it.
func TestReactiveReplicaGolden(t *testing.T) {
	const (
		goldenResult    = "0c24348a73604b768d54527b4e8a8695b0c2d916cf7c0455c17a33384315094d"
		goldenEvents    = "0d87ab7111edee201beb19265cc4ff56d1c87c247b8521d6901a98bf6e856c78"
		goldenBreakdown = "7c1b7d0e9a8fe3ea782b312c91ed63a92559b80ab78502de6a5aa6dbf7f720a5"
	)
	check := func(t *testing.T, res *Result, rec *trace.Recorder) {
		t.Helper()
		if res.EventCounts[TraceRetune] == 0 || res.EventCounts[TraceBreakdown] == 0 ||
			res.EventCounts[TraceRetry] == 0 || res.EventCounts[TraceShed] == 0 {
			t.Errorf("scenario no longer reaches retunes, breakdowns, retries and shedding: %v", res.EventCounts)
		}
		got := map[string][2]string{
			"Result":             {fmt.Sprintf("%x", sha256.Sum256([]byte(hashFailureResult(res, nil)))), goldenResult},
			"recorder events":    {hashEvents(rec.Events()), goldenEvents},
			"recorder breakdown": {hashBreakdowns(rec.Breakdowns()), goldenBreakdown},
		}
		for name, g := range got {
			if g[0] != g[1] {
				t.Errorf("%s hash drifted:\n got %s\nwant %s", name, g[0], g[1])
			}
		}
	}
	t.Run("closed", func(t *testing.T) {
		c, o := reactiveReplica(t)
		check(t, run(t, c, o), o.Recorder)
	})
	t.Run("sliced", func(t *testing.T) {
		c, o := reactiveReplica(t)
		rep, err := NewReplication(c, o, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 100.0; tt <= o.Horizon; tt += 100 {
			rep.AdvanceTo(tt)
		}
		rep.AdvanceTo(o.Horizon)
		res, err := rep.Result()
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, o.Recorder)
	})
}
