package sim

import (
	"fmt"

	"clusterq/internal/obs"
)

// Probe configures the simulator's observability hooks: periodic time-series
// sampling of the system state and per-event-type counters. Attach one via
// Options.Probe; a nil probe leaves the engine on its unobserved fast path.
type Probe struct {
	// Period is the sampling period in simulated seconds (required, > 0).
	// Every Period the probe records, per tier, the waiting-queue length,
	// busy servers, utilization and instantaneous power, plus the
	// system-wide per-class in-flight counts and total power.
	Period float64
	// Registry optionally receives the aggregated event counters
	// (sim_events_<kind>_total) and run-level gauges after Run completes,
	// for exposition through obs.Registry.WriteJSON / WritePrometheus.
	// May be nil.
	Registry *obs.Registry
}

func (p *Probe) validate() error {
	if p == nil {
		return nil
	}
	if !(p.Period > 0) {
		return fmt.Errorf("sim: probe period %g must be positive", p.Period)
	}
	return nil
}

// timelineSeriesNames builds the probe's column layout for jn tiers and kn
// classes: per tier queue/busy/util/power, per class in-flight, then the
// cluster-wide power.
func timelineSeriesNames(jn, kn int) []string {
	names := make([]string, 0, 4*jn+kn+1)
	for j := 0; j < jn; j++ {
		names = append(names,
			fmt.Sprintf("tier%d_queue", j),
			fmt.Sprintf("tier%d_busy", j),
			fmt.Sprintf("tier%d_util", j),
			fmt.Sprintf("tier%d_power", j),
		)
	}
	for k := 0; k < kn; k++ {
		names = append(names, fmt.Sprintf("class%d_inflight", k))
	}
	names = append(names, "power_total")
	return names
}

// publishProbe pushes the aggregated counters and run facts into the probe's
// registry (when one is attached) after all replications finished.
func publishProbe(p *Probe, res *Result, horizon float64) {
	reg := p.Registry
	if reg == nil {
		return
	}
	for _, name := range lifecycleCSV[:numCounted] {
		// Counters for inactive features are absent from EventCounts (see
		// probeKindActive); publishing them as zeros would misstate what
		// the run could even observe.
		if n, ok := res.EventCounts[name]; ok {
			reg.Counter("sim_events_"+name+"_total",
				"simulator "+name+" events summed over replications").
				Add(n)
		}
	}
	reg.Gauge("sim_replications", "independent replications run").
		Set(float64(res.Replications))
	reg.Gauge("sim_horizon_seconds", "simulated seconds per replication").
		Set(horizon)
	var completed int64
	for _, n := range res.Completed {
		completed += n
	}
	reg.Gauge("sim_completed_requests", "post-warmup completions, all classes").
		Set(float64(completed))
	reg.Gauge("sim_power_watts", "measured cluster average power").
		Set(res.TotalPower.Mean)
	reg.Gauge("sim_weighted_delay_seconds", "completion-weighted mean end-to-end delay").
		Set(res.WeightedDelay.Mean)
	if res.Timeline != nil {
		reg.Gauge("sim_timeline_samples", "probe samples recorded on replication 0").
			Set(float64(res.Timeline.Len()))
	}
}
