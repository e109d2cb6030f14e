// Command perfbench is clusterq's benchmark. One invocation runs one named
// workload for a fixed time budget and prints its metrics; the last line of
// standard output is a JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// derived from spans (--trace 1). See README.md for the workloads, the
// metrics and the checks.
//
//	go run . --workload steady_sim --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measurement budget in seconds")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the trace and layer table of --trace 1")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	// The load is one goroutine; a second P would only run the garbage
	// collector beside it, at a speed set by whatever else the host runs.
	runtime.GOMAXPROCS(1)
	r, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	var metrics []metric
	if *traceOn == 1 {
		metrics = layerMetrics(r)
		if err := writeTraceFiles(*outDir, *name, *seed, r.on.spans, metrics); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		metrics = endToEnd(r)
	}
	if err := report(os.Stdout, *name, *seed, r, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// passOut is what one pass of a workload measured and produced.
type passOut struct {
	traced    bool
	bare      bool // traced runs' first pass: autoscale drives its controller undelegated
	wall      time.Duration
	allocB    uint64
	peakRSS   float64   // MiB, over the pass's set-up and measured phase
	liveHeap  float64   // MiB: the largest live heap at a step boundary
	segs      []float64 // s: consecutive laps that partition the measured phase
	probes    []float64 // ns: the speed probe, timed at the end of each segment
	last      time.Time
	setups    []float64 // s at the reference speed: this pass's set-ups
	lat       []float64 // ms per timed step: a solve, an epoch's DecidePlan, a simulated slice
	latSeg    []int     // the segment each timed step lies in
	events    int64     // simulated events, from AdvanceTo returns
	attempted int
	failed    int
	problems  []string
	dig       digest
	quality   map[string]float64
	count     map[string]float64 // per-layer tallies read from program results
	samples   map[string][]float64
}

func (o *passOut) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// step records the host time of a timed step in the current segment.
func (o *passOut) step(ms float64) {
	o.lat = append(o.lat, ms)
	o.latSeg = append(o.latSeg, len(o.segs))
}

// lap closes the current segment of the measured phase at a step boundary.
// Outside every segment, it then collects the garbage, so that each step
// starts from the same heap, reads the live heap that remains, and times
// the speed probe.
func (o *passOut) lap() {
	o.segs = append(o.segs, time.Since(o.last).Seconds())
	runtime.GC()
	o.liveHeap = max(o.liveHeap, liveHeapMiB())
	o.probes = append(o.probes, probe())
	o.last = time.Now()
}

var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMiB returns the heap that the last collection found live.
func liveHeapMiB() float64 {
	metrics.Read(liveHeapSample)
	return float64(liveHeapSample[0].Value.Uint64()) / (1 << 20)
}

// segScales returns, for each segment, the factor that converts its host
// time to the reference speed (see calib.go): probeRefNs over the median
// of the probes at its start, at its end and after the next segment. The
// host's speed changes within a pass, so each segment takes the speed of
// its own moment.
func (o *passOut) segScales() []float64 {
	f := make([]float64, len(o.probes))
	for i := range f {
		f[i] = probeRefNs / median(o.probes[max(0, i-1):min(len(o.probes), i+2)])
	}
	return f
}

// scaledSegs returns the segments at the reference speed.
func (o *passOut) scaledSegs() []float64 {
	f := o.segScales()
	out := make([]float64, len(o.segs))
	for i, s := range o.segs {
		out[i] = s * f[i]
	}
	return out
}

// scaledLat returns the timed steps at the reference speed of their
// segments.
func (o *passOut) scaledLat() []float64 {
	f := o.segScales()
	out := make([]float64, len(o.lat))
	for i, x := range o.lat {
		out[i] = x * f[o.latSeg[i]]
	}
	return out
}

func (o *passOut) add(key string, v float64) { o.count[key] += v }

func (o *passOut) sample(key string, v float64) { o.samples[key] = append(o.samples[key], v) }

// A workload builds its inputs from a seed (the set-up phase) and returns
// the measured phase, which consumes them: every pass sets up afresh.
type setupFunc func(seed uint64, tr *tracer) (func(tr *tracer, out *passOut), error)

var workloads = map[string]setupFunc{
	"steady_sim":     steadySim,
	"offline_plan":   offlinePlan,
	"autoscale":      autoscale,
	"fleet_observed": fleetObserved,
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Each pass times at least setupMin set-ups, and more while they have
// taken less than setupBudget in all, up to setupMax; the last one feeds the
// pass. Cheap set-ups thus give more samples, and spreading the samples over
// the run keeps a stall of the host from owning the median.
const (
	setupMin    = 10
	setupMax    = 50
	setupBudget = 20 * time.Millisecond
)

// runResult gathers a run's passes.
type runResult struct {
	setups  []float64 // seconds at the reference speed, untraced passes
	passes  []*passOut
	ownHeap float64 // MiB live before the first set-up: the benchmark's own
	on      *tracer
	calibNs float64
}

func (r *runResult) sum(f func(*passOut) int) int {
	n := 0
	for _, p := range r.passes {
		n += f(p)
	}
	return n
}

func (r *runResult) attempted() int { return r.sum(func(p *passOut) int { return p.attempted }) }
func (r *runResult) failed() int    { return r.sum(func(p *passOut) int { return p.failed }) }
func (r *runResult) correct() bool  { return r.failed() == 0 }

// filter returns the traced or the untraced passes.
func (r *runResult) filter(traced bool) []*passOut {
	var out []*passOut
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// measure runs set-ups and passes of w, closed loop, until the budget is
// spent. Untraced runs make at least two passes, so their digests can be
// compared; traced runs alternate untraced and traced passes, at least one
// of each, so the trace overhead and the traced digest have a reference.
func measure(setup setupFunc, seed uint64, budget time.Duration, traced bool) (*runResult, error) {
	r := &runResult{calibNs: calibrate(), on: newTracer(true)}
	runtime.GC()
	r.ownHeap = liveHeapMiB()
	off := newTracer(false)
	start := time.Now()
	var ms runtime.MemStats
	for i := 0; ; i++ {
		p := &passOut{traced: traced && i%2 == 1, bare: traced && i == 0,
			quality: map[string]float64{}, count: map[string]float64{}, samples: map[string][]float64{}}
		tr := off
		if p.traced {
			tr = r.on
		}
		// Set-ups whose inputs are dropped, then the one the pass consumes,
		// timed alike; the peak-RSS count starts after the dropped ones.
		var run func(*tracer, *passOut)
		var spent time.Duration
		for k := 1; ; k++ {
			last := k >= setupMin && (spent >= setupBudget || k >= setupMax)
			setupTr := off
			if last {
				setupTr = tr
				runtime.GC()
				debug.FreeOSMemory()
				if err := resetPeakRSS(); err != nil {
					return nil, err
				}
			}
			speed := probeRefNs / probe()
			t := time.Now()
			var err error
			if run, err = setup(seed, setupTr); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			d := time.Since(t)
			spent += d
			p.setups = append(p.setups, d.Seconds()*speed)
			if last {
				break
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		p.last = time.Now()
		run(tr, p)
		p.lap()
		for _, s := range p.segs { // host time, the probes left out
			p.wall += time.Duration(s * float64(time.Second))
		}
		runtime.ReadMemStats(&ms)
		p.allocB = ms.TotalAlloc - alloc0
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		p.peakRSS = rss
		r.passes = append(r.passes, p)
		if !p.traced {
			r.setups = append(r.setups, p.setups...)
		}

		n := len(r.passes)
		elapsed := time.Since(start)
		enough := n >= 2
		if enough && elapsed+time.Duration(float64(elapsed)/float64(n)) > budget {
			break
		}
		if elapsed > 150*time.Second {
			break
		}
	}
	for i, p := range r.passes[1:] {
		if want := r.passes[0].dig.sum(); p.dig.sum() != want {
			p.fail("pass %d's result digest %016x differs from the first pass's %016x", i+1, p.dig.sum(), want)
		}
	}
	return r, nil
}

// The passes of a run repeat the same steps in the same order, each step
// timed once per pass. Every timing is first scaled to the reference speed
// by the probes around it, which takes out most of the host's drift; a
// step's time is then its median repeat, which takes out a stall within a
// pass. Peak RSS takes the smallest pass peak: a collector slowed by
// contention lets the heap overshoot.

// opLatencies returns each distinct timed step's median scaled repeat.
func opLatencies(passes []*passOut) []float64 {
	return stepMedians(passes, (*passOut).scaledLat)
}

// wallTime is the measured phase's duration summed over its segments, each
// at its median scaled repeat.
func wallTime(passes []*passOut) float64 {
	var sum float64
	for _, s := range stepMedians(passes, (*passOut).scaledSegs) {
		sum += s
	}
	return sum
}

// stepMedians returns the element-wise median of the passes' step vectors.
// If a failure made the vectors differ in length, it pools them instead.
func stepMedians(passes []*passOut, steps func(*passOut) []float64) []float64 {
	var vs [][]float64
	for _, p := range passes {
		vs = append(vs, steps(p))
	}
	for _, v := range vs {
		if len(v) != len(vs[0]) {
			return slices.Concat(vs...)
		}
	}
	out := make([]float64, len(vs[0]))
	reps := make([]float64, len(vs))
	for i := range out {
		for j, v := range vs {
			reps[j] = v[i]
		}
		out[i] = median(reps)
	}
	return out
}

// endToEnd derives the gated metrics from the untraced passes.
func endToEnd(r *runResult) []metric {
	un := r.filter(false)
	var allocs, live []float64
	for _, p := range un {
		live = append(live, p.liveHeap)
		allocs = append(allocs, float64(p.allocB)/(1<<20))
	}
	lat := opLatencies(un)
	if tailPerMille(len(lat)) < 900 {
		un[0].fail("%d distinct timed steps: the 90th percentile needs at least 100", len(lat))
	}
	q := un[0].quality
	return []metric{
		{"setup_s", median(r.setups), "s"},
		{"wall_s", wallTime(un), "s"},
		{"latency_ms_p50", percentile(lat, 500), "ms"},
		{"latency_ms_p90", percentile(lat, 900), "ms"},
		{"live_heap_mb", slices.Min(live) - r.ownHeap, "MB"},
		{"alloc_mb", median(allocs), "MB"},
		{"mean_power_w", q["mean_power_w"], "W"},
	}
}

// report prints the human-readable lines and then the result line.
func report(f *os.File, name string, seed uint64, r *runResult, metrics []metric) error {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "workload %s  seed %d  passes %d (traced %d)  GOMAXPROCS %d  calib %.0f ns\n",
		name, seed, len(r.passes), len(r.filter(true)), runtime.GOMAXPROCS(0), r.calibNs)
	un := r.filter(false)
	lat := opLatencies(un)
	events := un[0].events
	// The workload's own names for its end-to-end readings (README.md).
	extra := map[string][]metric{
		"steady_sim": {
			{"sim_events_per_s", float64(events) / wallTime(un), "1/s"},
			{"delay_err_pct", un[0].quality["delay_err_pct"], "%"},
			{"worst_delay_ratio", un[0].quality["worst_delay_ratio"], "ratio"},
		},
		"offline_plan": {
			{"plan_ms_p50", percentile(lat, 500), "ms"},
			{"plan_ms_p90", percentile(lat, 900), "ms"},
			{"worst_delay_ratio", un[0].quality["worst_delay_ratio"], "ratio"},
		},
		"autoscale": {
			{"decide_ms_p50", percentile(lat, 500), "ms"},
			{"decide_ms_p90", percentile(lat, 900), "ms"},
			{"worst_delay_ratio", un[0].quality["worst_delay_ratio"], "ratio"},
			{"fallback_frac", un[0].quality["fallback_frac"], "1"},
		},
		"fleet_observed": {
			{"sim_events_per_s", float64(events) / wallTime(un), "1/s"},
			{"worst_delay_ratio", un[0].quality["worst_delay_ratio"], "ratio"},
			{"goodput_frac", un[0].quality["goodput_frac"], "1"},
		},
	}[name]
	errFrac := float64(r.failed()) / float64(max(1, r.attempted()))
	var rss []float64
	for _, p := range un {
		rss = append(rss, p.peakRSS)
	}
	extra = append(extra, metric{"error_frac", errFrac, "1"}, metric{"latency_steps", float64(len(lat)), "count"},
		metric{"peak_rss_mb", slices.Min(rss), "MB"})
	for _, m := range append(extra, metrics...) {
		if !math.IsNaN(m.value) { // a reading the run's passes cannot give
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "  pass walls (s, host time):")
	for _, p := range r.passes {
		fmt.Fprintf(w, " %.4g", p.wall.Seconds())
	}
	fmt.Fprintf(w, "\n  pass speed scales:")
	for _, p := range r.passes {
		fmt.Fprintf(w, " %.4g", probeRefNs/median(p.probes))
	}
	fmt.Fprintf(w, "\n  pass peak RSS (MB):")
	for _, p := range r.passes {
		fmt.Fprintf(w, " %.4g", p.peakRSS)
	}
	fmt.Fprintln(w)
	for _, p := range r.passes {
		for _, s := range p.problems {
			fmt.Fprintf(w, "  FAILED: %s\n", s)
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted(), r.failed(), map[string]val{}}
	for _, m := range metrics {
		if err := checkMetricName(m.name); err != nil {
			return err
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %g", m.name, m.value)
		}
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return w.Flush()
}

// writeTraceFiles writes the spans (Perfetto-loadable) and the per-layer
// table: self time per layer, then the per-layer metrics.
func writeTraceFiles(dir, name string, seed uint64, spans []span, metrics []metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	for _, f := range []struct {
		path  string
		write func(*os.File) error
	}{
		{base + ".trace.json", func(f *os.File) error { return writeChromeTrace(f, spans) }},
		{base + ".layers.txt", func(f *os.File) error {
			if err := writeLayerTable(f, spans); err != nil {
				return err
			}
			for _, m := range metrics {
				if _, err := fmt.Fprintf(f, "%-34s %16.6g %s\n", m.name, m.value, m.unit); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		fh, err := os.Create(f.path)
		if err != nil {
			return err
		}
		if err := f.write(fh); err != nil {
			fh.Close()
			return fmt.Errorf("write %s: %w", f.path, err)
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS count for this process
// (Linux ≥ 4.0), so each pass reads its own peak.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set size (Linux).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
