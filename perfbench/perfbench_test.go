package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPerMille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The chosen rung leaves at least ten samples beyond it; the next one
	// up does not.
	for n := 1; n <= 3000; n++ {
		p := tailPerMille(n)
		for _, rung := range percentileLadder {
			beyond := n - rankOf(rung, n)
			switch {
			case rung == p && beyond < 10:
				t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, rung, beyond)
			case rung > p && beyond >= 10:
				t.Fatalf("n=%d: p%d leaves %d ≥ 10 beyond it but %d was chosen", n, rung, beyond, p)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort a copy
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (ten samples beyond)", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %g, want 50", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	few := []float64{3, 1, 2}
	if got := tailOrBest(few); got != 2 {
		t.Errorf("tailOrBest of 3 samples = %g, want the median 2", got)
	}
	if got := tailOrBest(xs[:80]); got != 90 { // 21..100: rank 70 leaves 91..100 beyond
		t.Errorf("tailOrBest of 80 samples = %g, want 90", got)
	}
	if got := tailOrBest(xs); got != 90 {
		t.Errorf("tailOrBest of 100 samples = %g, want the p90 90", got)
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	d := func(v int) time.Duration { return time.Duration(v) }
	spans := []span{
		{name: "sim.advance", id: 0, parent: -1, start: d(0), end: d(100)},
		{name: "control.decide", id: 1, parent: 0, start: d(10), end: d(30)},
		{name: "control.decide", id: 2, parent: 0, start: d(25), end: d(50)}, // overlaps 1
		{name: "core.c3b", id: 3, parent: 1, start: d(12), end: d(20)},
		{name: "core.c3b", id: 4, parent: 2, start: d(40), end: d(60)}, // runs past its parent
		{name: "sim.result", id: 5, parent: -1, start: d(100), end: d(110)},
	}
	want := []time.Duration{60, 12, 15, 8, 20, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	spans[0].allocs, spans[1].allocs, spans[2].allocs, spans[3].allocs = 100, 30, 20, 5
	if got := selfAllocs(spans)[:4]; !reflect.DeepEqual(got, []uint64{50, 25, 20, 5}) {
		t.Errorf("selfAllocs = %v", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(true)
	tr.setOp(tr.newOp())
	outer := tr.begin("sim.advance")
	inner := tr.begin("control.decide")
	tr.end(inner)
	tr.end(outer)
	tr.setOp(tr.newOp())
	tr.end(tr.begin("sim.result"))
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	s := tr.spans
	if s[0].parent != -1 || s[1].parent != 0 || s[2].parent != -1 {
		t.Errorf("parents = %d %d %d, want -1 0 -1", s[0].parent, s[1].parent, s[2].parent)
	}
	if s[0].op != s[1].op || s[2].op == s[0].op {
		t.Errorf("ops = %d %d %d: a child shares its parent's op, a new op differs", s[0].op, s[1].op, s[2].op)
	}
	if s[1].start < s[0].start || s[1].end > s[0].end {
		t.Error("child span lies outside its parent")
	}
	off := newTracer(false)
	if off.end(off.begin("sim.advance")); len(off.spans) != 0 {
		t.Error("an untraced tracer recorded a span")
	}
}

func TestScaledMedianStepAggregation(t *testing.T) {
	// pass builds a pass whose segments hold one timed step each.
	pass := func(segs, lat []float64, probeNs float64) *passOut {
		p := &passOut{}
		for i := range segs {
			p.step(lat[i])
			p.segs = append(p.segs, segs[i])
			p.probes = append(p.probes, probeNs)
		}
		return p
	}
	a := pass([]float64{1, 2, 1}, []float64{3, 1, 2}, probeRefNs)
	b := pass([]float64{2, 1, 1}, []float64{2, 5, 2}, probeRefNs)
	// A pass on a host at half speed: its probes take twice as long, and
	// its timings scale back to the reference.
	c := pass([]float64{4, 6, 2}, []float64{8, 6, 4}, 2*probeRefNs)
	if got := opLatencies([]*passOut{a, b, c}); !reflect.DeepEqual(got, []float64{3, 3, 2}) {
		t.Errorf("opLatencies = %v, want the per-step medians [3 3 2]", got)
	}
	if got := wallTime([]*passOut{a, b, c}); got != 5 {
		t.Errorf("wallTime = %g, want 2 + 2 + 1", got)
	}
	d := pass([]float64{1}, []float64{9}, probeRefNs)
	if got := opLatencies([]*passOut{a, d}); len(got) != 4 {
		t.Errorf("mismatched passes should pool, got %v", got)
	}
}

func TestSegmentsTakeTheSpeedOfTheirMoment(t *testing.T) {
	r := probeRefNs
	p := &passOut{probes: []float64{r, r, r, 4 * r, 4 * r, 4 * r}}
	if got, want := p.segScales(), []float64{1, 1, 1, 0.25, 0.25, 0.25}; !reflect.DeepEqual(got, want) {
		t.Errorf("segScales = %v, want %v", got, want)
	}
	// One slow probe among fast ones is a stall of the probe, not of the host.
	p.probes = []float64{r, r, 9 * r, r, r}
	if got, want := p.segScales(), []float64{1, 1, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("segScales = %v, want %v", got, want)
	}
}

func TestProbeIsFixedWorkWithoutAllocation(t *testing.T) {
	probe()
	s0 := calibSink
	probe()
	d1 := calibSink - s0
	probe()
	if d2 := calibSink - s0 - d1; d1 != d2 {
		t.Errorf("two probes computed %d and %d: the work is not fixed", d1, d2)
	}
	if n := testing.AllocsPerRun(5, func() { probe() }); n != 0 {
		t.Errorf("probe allocates %g objects per call", n)
	}
}

func TestMetricNameCheck(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.c3b.ms_p90", "obs.trace.events_dropped", "a-b.9"} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "wall(s)", "délai", strings.Repeat("m", 65)} {
		if checkMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestReportedMetricsMatchBenchmarkJSON keeps the names and units the
// command prints in step with BENCHMARK.json.
func TestReportedMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"steady_sim", "offline_plan", "autoscale", "fleet_observed"}) {
		t.Errorf("BENCHMARK.json workloads = %v", names)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s is not implemented", n)
		}
	}

	pass := func(traced bool) *passOut {
		p := &passOut{traced: traced, quality: map[string]float64{"mean_power_w": 1},
			count: map[string]float64{}, samples: map[string][]float64{}, wall: time.Second}
		for i := 0; i < 100; i++ {
			p.step(float64(i))
		}
		p.segs, p.probes = []float64{1}, []float64{probeRefNs}
		return p
	}
	r := &runResult{setups: []float64{1}, passes: []*passOut{pass(false), pass(true)}, on: newTracer(true)}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: reported %s (%s), BENCHMARK.json has %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
			if err := checkMetricName(got[i].name); err != nil {
				t.Error(err)
			}
		}
	}
	check("end_to_end", endToEnd(r), spec.EndToEnd)
	check("per_layer", layerMetrics(r), spec.PerLayer)
}

func TestPlanGridIsAFunctionOfTheSeed(t *testing.T) {
	a, b := planGrid(7), planGrid(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different grids")
	}
	if reflect.DeepEqual(a, planGrid(8)) {
		t.Fatal("seeds 7 and 8 drew the same grid")
	}
	// One draw per arrival-scale stratum and per slack stratum, per problem.
	i := 0
	for _, mix := range offlineMix {
		scales := map[int]bool{}
		slacks := map[int]bool{}
		for j := 0; j < mix.n; j++ {
			s := a[i]
			i++
			if s.problem != mix.problem {
				t.Fatalf("cell %d is %s, want %s", i, s.problem, mix.problem)
			}
			scales[int((s.scale-0.7)/0.6*float64(mix.n))] = true
			slacks[int(s.slack*float64(mix.n))] = true
		}
		if len(scales) != mix.n || len(slacks) != mix.n {
			t.Errorf("%s: %d scale and %d slack strata covered, want %d each", mix.problem, len(scales), len(slacks), mix.n)
		}
	}
	if i != len(a) {
		t.Errorf("grid has %d cells, mix sums to %d", len(a), i)
	}
	// Building the cells reads nothing but the spec.
	off := newTracer(false)
	for _, s := range a[:4] {
		c1, err1 := buildCell(s, off)
		c2, err2 := buildCell(s, off)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if c1.limit != c2.limit || !reflect.DeepEqual(c1.bounds, c2.bounds) {
			t.Errorf("cell %+v built two different constraints", s)
		}
	}
}
