package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// allTraceKinds is the complete CSV event vocabulary.
var allTraceKinds = []string{
	TraceArrival, TraceStart, TracePreempt, TraceVisitEnd, TraceExit,
	TraceRetune, TraceSetupBegin, TraceSetupDone, TraceBreakdown, TraceRepair,
	TraceTimeout, TraceRetry, TraceAbandon, TraceShed, TraceShedLevel, TracePark,
}

// swingPlan alternates tier 1 between two speeds and two active-pool sizes
// every epoch, so the run retunes and parks repeatedly.
type swingPlan struct {
	epoch   int
	speeds  []float64
	servers []int
}

func (*swingPlan) Name() string { return "swing" }

func (p *swingPlan) DecidePlan(PlanObservation) PlanDecision {
	p.epoch++
	p.speeds[1], p.servers[1] = 1.6, 2
	if p.epoch%2 == 0 {
		p.speeds[1], p.servers[1] = 1.3, 1
	}
	return PlanDecision{Speeds: p.speeds, Servers: p.servers}
}

// observerScenario is one run that reaches every observer path: tier 0
// sleeps (setup_begin/setup_done), tier 1 is preemptive with breakdowns
// (preempt, breakdown, repair, and breakdown victims), every class has a
// deadline with retries (timeout, retry, abandon, resume), shedding refuses
// the lowest classes (shed, shed_level), and a plan controller retunes and
// parks tier 1 (retune, park). All four consumers are attached.
func observerScenario(t *testing.T, recCap int) (csv []byte, res *Result, rec *trace.Recorder) {
	t.Helper()
	pm, _ := power.NewPowerLaw(100, 10, 2)
	c := &cluster.Cluster{
		Tiers: []*cluster.Tier{
			{Name: "sleepy", Servers: 2, Speed: 1.5, Discipline: queueing.NonPreemptive, Power: pm,
				Demands: []queueing.Demand{{Work: 0.6, CV2: 1}, {Work: 0.6, CV2: 1}, {Work: 0.6, CV2: 1}}},
			{Name: "flaky", Servers: 2, Speed: 1.3, Discipline: queueing.PreemptiveResume, Power: pm,
				Demands: []queueing.Demand{{Work: 0.8, CV2: 1}, {Work: 1, CV2: 2}, {Work: 1.2, CV2: 1}}},
		},
		Classes: []cluster.Class{
			{Name: "gold", Lambda: 0.5}, {Name: "silver", Lambda: 0.6}, {Name: "bronze", Lambda: 0.7},
		},
	}
	w, err := window.NewSet(window.Config{Width: 50}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec = trace.NewRecorder(recCap)
	var buf bytes.Buffer
	res = run(t, c, Options{
		Horizon: 800, Warmup: 80, Replications: 1, Seed: 17,
		Trace: &buf, Recorder: rec, Windows: w, Probe: &Probe{Period: 10},
		PlanController: &swingPlan{speeds: make([]float64, 2), servers: make([]int, 2)},
		ControlPeriod:  30,
		Sleep:          []*SleepConfig{{Setup: queueing.NewExponential(0.5), SleepPower: 5}, nil},
		Failures:       []*FailureConfig{nil, {MTBF: 60, MTTR: 6}},
		Deadlines: []*DeadlineConfig{
			{Deadline: 20, MaxRetries: 1, RetryBackoff: 1},
			{Deadline: 12, MaxRetries: 2, RetryBackoff: 1},
			{Deadline: 8},
		},
		Shedding: &SheddingConfig{Threshold: 0.8, Period: 15},
	})
	return buf.Bytes(), res, rec
}

// hashTimeline digests the probe timeline bit-exactly.
func hashTimeline(tl *obs.Timeline) string {
	var sb strings.Builder
	for _, tm := range tl.Times() {
		sb.WriteString(strconv.FormatFloat(tm, 'x', -1, 64))
		sb.WriteByte(',')
	}
	for _, name := range tl.Names() {
		sb.WriteString(name)
		for _, v := range tl.Values(name) {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		}
		sb.WriteByte(';')
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// hashBreakdowns digests the recorder's per-class sojourn decomposition.
func hashBreakdowns(bs []trace.Breakdown) string {
	var sb strings.Builder
	for _, b := range bs {
		fmt.Fprintf(&sb, "%d:%d/%d/%d", b.Class, b.Completed, b.Abandoned, b.Dropped)
		for _, v := range []float64{b.Queue, b.Service, b.Preempted, b.Backoff} {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		}
		sb.WriteByte(';')
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// hashEvents digests the recorder's event ring bit-exactly.
func hashEvents(es []trace.Event) string {
	var sb strings.Builder
	for _, e := range es {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%s,%s;", e.Kind, e.Class, e.Job, e.Station,
			strconv.FormatFloat(e.T, 'x', -1, 64), strconv.FormatFloat(e.Value, 'x', -1, 64))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// csvKindCounts tallies the trace's rows by event name.
func csvKindCounts(t *testing.T, csv []byte) map[string]int64 {
	t.Helper()
	counts := map[string]int64{}
	for _, row := range parseRows(t, bytes.NewBuffer(csv)) {
		counts[row.event]++
	}
	return counts
}

// TestObserverOutputsGolden pins every observer's output on the scenario
// that reaches every lifecycle point: the CSV trace bytes, the Result (with
// the degraded-mode counters, EventCounts and the probe Timeline), and the
// recorder's event ring and per-class breakdown. The hashes were recorded before the four
// observer paths were merged into one event sink; a drift means an observer
// now sees a different event stream.
func TestObserverOutputsGolden(t *testing.T) {
	csv, res, rec := observerScenario(t, trace.DefaultCapacity)

	counts := csvKindCounts(t, csv)
	for _, kind := range allTraceKinds {
		if counts[kind] == 0 {
			t.Errorf("trace has no %q row: the golden no longer covers that kind", kind)
		}
	}

	const (
		goldenCSV       = "3637be48000e086e0056b7e6aad1a403c0d69f5ea190d1483a9c69c5affb2d74"
		goldenResult    = "23e4001c4e222804a7b0e07ee008c2a3c886b8864e7d2793645396f04591bd67"
		goldenTimeline  = "1edc7137ae398a2edce90dcaba4ac79c8ad92f6a0b6d82f28a19938ddee44a4f"
		goldenEvents    = "9dc61ec3789749503397fea6a8f090a0606643a1429a9e35f7562f0dc4fe836e"
		goldenBreakdown = "e6a195d1e076565a6a0b80044a3d59728ee2c18adc989083cbac9a55e1b3b259"
	)
	got := map[string][2]string{
		"CSV trace":          {fmt.Sprintf("%x", sha256.Sum256(csv)), goldenCSV},
		"Result":             {fmt.Sprintf("%x", sha256.Sum256([]byte(hashFailureResult(res, nil)))), goldenResult},
		"Timeline":           {hashTimeline(res.Timeline), goldenTimeline},
		"recorder events":    {hashEvents(rec.Events()), goldenEvents},
		"recorder breakdown": {hashBreakdowns(rec.Breakdowns()), goldenBreakdown},
	}
	for name, g := range got {
		if g[0] != g[1] {
			t.Errorf("%s hash drifted:\n got %s\nwant %s", name, g[0], g[1])
		}
	}
}

// TestObserverConsumersAgree checks the consumers against each other on one
// run: every counted kind has exactly as many CSV rows as its EventCounts
// entry, and the recorder (sized not to wrap) holds one arrival event per
// CSV arrival row.
func TestObserverConsumersAgree(t *testing.T) {
	csv, res, rec := observerScenario(t, 1<<16)
	if rec.EventsDropped() != 0 {
		t.Fatalf("recorder ring wrapped (%d events dropped): grow its capacity", rec.EventsDropped())
	}
	counts := csvKindCounts(t, csv)
	if len(res.EventCounts) == 0 {
		t.Fatal("no EventCounts with a probe attached")
	}
	for kind, n := range res.EventCounts {
		if counts[kind] != n {
			t.Errorf("%s: %d CSV rows, EventCounts %d", kind, counts[kind], n)
		}
	}
	var arrivals int64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindArrival {
			arrivals++
		}
	}
	if arrivals != counts[TraceArrival] {
		t.Errorf("recorder holds %d arrival events, CSV has %d arrival rows", arrivals, counts[TraceArrival])
	}
}
