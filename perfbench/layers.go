package main

import "time"

// spanAgg sums the spans of one name.
type spanAgg struct {
	durs       []float64 // ms
	self       time.Duration
	allocs     uint64
	selfAllocs uint64
}

// layerMetrics derives the per-layer metrics from the traced passes' spans
// and the tallies those passes read from the program's results. Counts are
// per pass; a layer the workload does not call reads 0.
func layerMetrics(r *runResult) []metric {
	traced, untraced := r.filter(true), r.filter(false)
	passes := float64(len(traced))
	spans := r.on.spans
	self, selfA := selfTimes(spans), selfAllocs(spans)
	by := map[string]*spanAgg{}
	var buildMs float64
	for i, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &spanAgg{}
			by[s.name] = a
		}
		a.durs = append(a.durs, ms(s.dur()))
		a.self += self[i]
		a.allocs += s.allocs
		a.selfAllocs += selfA[i]
		if s.layer() == "workload" {
			buildMs += ms(s.dur())
		}
	}
	get := func(name string) *spanAgg {
		if a := by[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	total := func(key string) float64 {
		var v float64
		for _, p := range traced {
			v += p.count[key]
		}
		return v
	}
	perPass := func(key string) float64 { return total(key) / passes }
	samples := func(key string) []float64 {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.samples[key]...)
		}
		return xs
	}

	out := []metric{
		{"workload.build_ms", buildMs / passes, "ms"},
	}
	ev := get("cluster.evaluate")
	out = append(out,
		metric{"cluster.evaluate.calls", float64(len(ev.durs)) / passes, "count"},
		metric{"cluster.evaluate.us_p50", 1e3 * med0(ev.durs), "us"},
		metric{"cluster.evaluate.allocs_per_call", ratio(float64(ev.allocs), float64(len(ev.durs))), "allocs"},
		metric{"cluster.check_slas.violations", perPass("cluster.check_slas.violations"), "count"},
	)
	for _, p := range []string{"c2", "c3a", "c3b", "c4"} {
		name := "core." + p
		a := get(name)
		var sum float64
		for _, d := range a.durs {
			sum += d
		}
		ok := total(name+".solves") - total(name+".errors")
		tail := 0.0
		if len(a.durs) > 0 {
			tail = tailOrBest(a.durs)
		}
		out = append(out,
			metric{name + ".solves", perPass(name + ".solves"), "count"},
			metric{name + ".ms_p50", med0(a.durs), "ms"},
			metric{name + ".ms_p90", tail, "ms"},
			metric{name + ".evals_per_solve", ratio(total(name+".evals"), ok), "count"},
			metric{name + ".us_per_eval", ratio(1e3*sum, total(name+".evals")), "us"},
			metric{name + ".allocs_per_solve", ratio(float64(a.allocs), float64(len(a.durs))), "allocs"},
			metric{name + ".errors", perPass(name + ".errors"), "count"},
		)
	}
	adv := get("sim.advance")
	out = append(out,
		metric{"sim.replications", perPass("sim.replications"), "count"},
		metric{"sim.events", perPass("sim.events"), "count"},
		metric{"sim.ns_per_event", ratio(float64(adv.self.Nanoseconds()), total("sim.events")), "ns"},
		metric{"sim.setup_ms", med0(get("sim.new_replication").durs), "ms"},
		metric{"sim.result_ms", med0(get("sim.result").durs), "ms"},
		metric{"sim.allocs_per_event", ratio(float64(adv.selfAllocs), total("sim.events")), "allocs"},
		metric{"sim.timeouts", perPass("sim.timeouts"), "count"},
		metric{"sim.retries", perPass("sim.retries"), "count"},
		metric{"sim.abandoned", perPass("sim.abandoned"), "count"},
		metric{"sim.shed", perPass("sim.shed"), "count"},
	)
	dec := get("control.decide")
	var decideMs, wallMs float64
	for _, d := range dec.durs {
		decideMs += d
	}
	for _, p := range traced {
		wallMs += 1e3 * p.wall.Seconds()
	}
	out = append(out,
		metric{"control.epochs", perPass("control.epochs"), "count"},
		metric{"control.solves", perPass("control.solves"), "count"},
		metric{"control.holds", perPass("control.holds"), "count"},
		metric{"control.fallbacks", perPass("control.fallbacks"), "count"},
		metric{"control.solve_ms_p50", med0(samples("control.solve_ms")), "ms"},
		metric{"control.hold_us_p50", med0(samples("control.hold_us")), "us"},
		metric{"control.decide_share", ratio(decideMs, wallMs), "ratio"},
	)
	madv := get("multi.advance")
	out = append(out,
		metric{"multi.replicas", perPass("multi.replicas"), "count"},
		metric{"multi.events", perPass("multi.events"), "count"},
		metric{"multi.ns_per_event", ratio(float64(madv.self.Nanoseconds()), total("multi.events")), "ns"},
		metric{"multi.results_ms", med0(get("multi.results").durs), "ms"},
		metric{"obs.trace.events", perPass("obs.trace.events"), "count"},
		metric{"obs.trace.events_dropped", perPass("obs.trace.events_dropped"), "count"},
		metric{"obs.trace.spans_dropped", perPass("obs.trace.spans_dropped"), "count"},
		metric{"obs.trace.export_ms", med0(get("obs.trace.export").durs), "ms"},
		metric{"bench.trace_overhead_pct", 100 * (wallTime(traced) - wallTime(untraced)) / wallTime(untraced), "%"},
		metric{"bench.calib_ns", r.calibNs, "ns"},
		metric{"bench.probe_us", probeMedianUs(r.passes), "us"},
	)
	return out
}

// med0 is the median, or 0 for a layer with no samples.
func med0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeMedianUs is the speed probe's median time over the run, in µs.
func probeMedianUs(passes []*passOut) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, p.probes...)
	}
	return median(xs) / 1e3
}
