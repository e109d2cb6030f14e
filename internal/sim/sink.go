package sim

import (
	"bufio"

	"clusterq/internal/cluster"
	"clusterq/internal/obs"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
)

// The lifecycle event stream. Every job and station lifecycle point in the
// simulator emits one typed event into one sink, and the sink fans it out
// by kind to the attached consumers: the CSV trace (Options.Trace), the
// per-kind counters behind Result.EventCounts (Options.Probe), the flight
// recorder (Options.Recorder), the window sensors (Options.Windows) and the
// per-class in-flight counts the probe's timeline samples. The kind table
// below is the one place the event vocabulary lives.

// lifecycle is one kind of lifecycle event.
type lifecycle uint8

const (
	// Counted kinds, in Result.EventCounts and registry order; each has a
	// CSV row.
	lcArrival lifecycle = iota
	lcStart
	lcPreempt
	lcVisitEnd
	lcExit
	lcRetune
	lcSetupBegin
	lcSetupDone
	lcBreakdown
	lcRepair
	lcTimeout
	lcRetry
	lcAbandon
	lcShed
	lcPark
	// Uncounted kinds: the admission level (a CSV row only), a breakdown
	// interrupting its victim's service, a retried job re-entering, and a
	// job that never entered because its routing entry row is empty (the
	// last three reach only the recorder and the in-flight counts).
	lcShedLevel
	lcInterrupt
	lcResume
	lcDrop
	numLifecycle

	numCounted = lcShedLevel
)

// lifecycleCSV names each kind in the CSV trace's event column; a kind
// without a name writes no row.
var lifecycleCSV = [numLifecycle]string{
	lcArrival: TraceArrival, lcStart: TraceStart, lcPreempt: TracePreempt,
	lcVisitEnd: TraceVisitEnd, lcExit: TraceExit, lcRetune: TraceRetune,
	lcSetupBegin: TraceSetupBegin, lcSetupDone: TraceSetupDone,
	lcBreakdown: TraceBreakdown, lcRepair: TraceRepair, lcTimeout: TraceTimeout,
	lcRetry: TraceRetry, lcAbandon: TraceAbandon, lcShed: TraceShed,
	lcPark: TracePark, lcShedLevel: TraceShedLevel,
}

// lifecycleInflight is each kind's change to its class's in-flight count.
var lifecycleInflight = [numLifecycle]int{lcArrival: 1, lcExit: -1, lcAbandon: -1, lcDrop: -1}

// probeKindActive reports whether a counted kind can be nonzero under the
// given options. Inactive counters are omitted from Result.EventCounts so
// failure-free results — and the golden hashes pinned on them — are
// untouched by the failure subsystem's vocabulary.
func probeKindActive(k lifecycle, o Options) bool {
	switch k {
	case lcBreakdown, lcRepair:
		return o.Failures != nil
	case lcTimeout, lcRetry, lcAbandon:
		return o.Deadlines != nil
	case lcShed:
		return o.Shedding != nil
	case lcPark:
		// Only PlanController parks: the stateless Controller policies
		// retune speeds alone.
		return o.PlanController != nil
	default:
		return true
	}
}

// sink is the one observer of a replication, held by value in the simulator
// so attaching consumers costs no allocation of its own. It is on when some
// consumer is attached; off, each lifecycle point costs one branch.
type sink struct {
	on  bool
	csv *bufio.Writer   // Options.Trace, or nil
	rec *trace.Recorder // Options.Recorder on the recording replication, or nil
	win *window.Set     // Options.Windows on the recording replication, or nil
	tl  *obs.Timeline   // probe timeline on the recording replication, or nil

	period   float64 // probe sampling period (0 without a probe)
	counts   [numCounted]int64
	inflight []int // jobs in system per class, sampled into the timeline
}

// emit hands one lifecycle event to the sink (see sink.emit); one branch
// when nothing observes.
func (s *simulator) emit(kind lifecycle, now float64, class int, job uint64, station int, value float64) {
	if s.obs.on {
		s.obs.emit(kind, now, class, job, station, value)
	}
}

// newSink attaches the consumers the options ask for. record marks the
// recording replication (replication 0), the only one that feeds the
// recorder, the windows and the timeline.
func newSink(c *cluster.Cluster, o Options, record bool) sink {
	var k sink
	if o.Trace != nil {
		k.csv = newCSVTrace(o.Trace)
	}
	if o.Probe != nil {
		k.period = o.Probe.Period
	}
	if record {
		k.rec, k.win = o.Recorder, o.Windows
		if o.Probe != nil {
			k.tl = obs.NewTimeline(timelineSeriesNames(len(c.Tiers), len(c.Classes))...)
			k.inflight = make([]int, len(c.Classes))
		}
	}
	k.on = k.csv != nil || o.Probe != nil || k.rec != nil || k.win != nil
	return k
}

// emit hands one lifecycle event to every consumer of its kind. class is
// -1 for station-level events, station -1 for events not tied to a station,
// and value is the kind's CSV value column (see the Trace* kinds).
func (k *sink) emit(kind lifecycle, now float64, class int, job uint64, station int, value float64) {
	if kind < numCounted {
		k.counts[kind]++
	}
	if k.csv != nil && lifecycleCSV[kind] != "" {
		writeTraceRow(k.csv, now, lifecycleCSV[kind], class, job, station, value)
	}
	if k.inflight != nil && lifecycleInflight[kind] != 0 {
		k.inflight[class] += lifecycleInflight[kind]
	}
	if k.win != nil {
		switch kind {
		case lcArrival:
			k.win.ObserveArrival(now, class)
		case lcExit:
			k.win.ObserveSojourn(now, class, value)
		}
	}
	if k.rec == nil {
		return
	}
	switch kind {
	case lcArrival:
		k.rec.RecordArrival(now, class, job)
	case lcStart:
		k.rec.RecordServiceStart(now, class, job, station)
	case lcPreempt, lcInterrupt:
		k.rec.RecordPreempt(now, class, job, station)
	case lcVisitEnd:
		k.rec.RecordServiceStop(now, class, job, station)
	case lcTimeout:
		k.rec.RecordTimeout(now, class, job, station)
	case lcRetry:
		k.rec.RecordBackoff(now, class, job, int(value))
	case lcResume:
		k.rec.RecordResume(now, class, job)
	case lcExit:
		k.rec.RecordExit(now, class, job, trace.OutcomeCompleted)
	case lcAbandon:
		k.rec.RecordExit(now, class, job, trace.OutcomeAbandoned)
	case lcDrop:
		k.rec.RecordExit(now, class, job, trace.OutcomeDropped)
	}
}

// handleSample takes the probe's periodic observation — a timeline row and,
// for the window sensors, per-tier utilization samples plus a gauge refresh
// for live HTTP readers — and schedules the next. The sensors sample
// utilization of the UP servers, the controller-facing truth during
// outages; the timeline's tier<j>_util column keeps the configured-capacity
// view that matches Result.Tiers.
func (s *simulator) handleSample() {
	k, now := &s.obs, s.cal.now
	if k.tl != nil {
		row := k.tl.Row()
		i := 0
		var totalPower float64
		for _, st := range s.stations {
			p := st.instPower()
			row[i] = float64(st.queueLen())
			row[i+1] = float64(len(st.running))
			row[i+2] = float64(len(st.running)) / float64(st.servers)
			row[i+3] = p
			i += 4
			totalPower += p
		}
		for _, n := range k.inflight {
			row[i] = float64(n)
			i++
		}
		row[i] = totalPower
		k.tl.Sample(now, row)
	}
	if k.win != nil {
		for j, st := range s.stations {
			k.win.ObserveUtilization(now, j, st.instUpUtilization())
		}
		k.win.Publish(now)
	}
	s.cal.schedule(now+k.period, evSample, 0, nil, 0, nil)
}

// rates fills dst with the window sensors' per-class arrival-rate estimates
// (NaN without coverage or without sensors). Reading only advances the
// sensors' expiry bookkeeping, never the measured state.
func (k *sink) rates(now float64, dst []float64) {
	k.win.Rates(now, dst)
}

// finish hands the counters and the timeline to the replication summary and
// flushes the CSV trace, returning its first write error.
func (k *sink) finish(out *repOutput) error {
	out.events, out.tl = k.counts, k.tl
	if k.csv == nil {
		return nil
	}
	return k.csv.Flush()
}
