package sim

import (
	"bufio"
	"fmt"
	"io"
)

// TraceHeader is the CSV header line of the event trace.
const TraceHeader = "time,event,class,job,station,value"

// traceBufSize is the CSV trace's buffer: large enough that a busy trace
// issues one underlying write per ~64 KiB of rows instead of one per row,
// small enough to be irrelevant next to the simulator state.
const traceBufSize = 64 << 10

// newCSVTrace starts the CSV consumer of the lifecycle event stream (see
// sink.go) on w. Rows reach w only as the buffer fills and when the sink
// flushes it at the end of the replication. The buffer latches the first
// write error: the trace goes silent from there, and the final Flush
// returns the error, which Run surfaces instead of dropping it.
func newCSVTrace(w io.Writer) *bufio.Writer {
	bw := bufio.NewWriterSize(w, traceBufSize)
	_, _ = bw.WriteString(TraceHeader + "\n") // a failure is latched for Flush
	return bw
}

// writeTraceRow writes one event as a CSV row (errors latch in bw). It stays
// out of line so fmt's per-row argument boxing is charged to this file, not
// to the allocation-gated sink (see internal/lint/hotalloc.go).
//
//go:noinline
func writeTraceRow(bw *bufio.Writer, now float64, kind string, class int, jobID uint64, station int, value float64) {
	_, _ = fmt.Fprintf(bw, "%.9g,%s,%d,%d,%d,%.9g\n", now, kind, class, jobID, station, value)
}

// Trace event kinds, written in the `event` column (sink.go maps the
// lifecycle kinds to them).
const (
	TraceArrival    = "arrival" // external arrival accepted
	TraceStart      = "service_start"
	TracePreempt    = "preempt"
	TraceVisitEnd   = "visit_end"   // service at a station completed
	TraceExit       = "exit"        // request left the system
	TraceRetune     = "retune"      // controller changed a station's speed (value = new speed)
	TraceSetupBegin = "setup_begin" // a sleeping server starts warming up
	TraceSetupDone  = "setup_done"
	TraceBreakdown  = "breakdown"  // a server failed (value = failed count after)
	TraceRepair     = "repair"     // a server was repaired (value = failed count after)
	TraceTimeout    = "timeout"    // an attempt's deadline expired (value = age)
	TraceRetry      = "retry"      // a timed-out request re-enters (value = attempt #)
	TraceAbandon    = "abandon"    // retry budget spent; the request leaves unserved
	TraceShed       = "shed"       // an arrival refused by admission control
	TraceShedLevel  = "shed_level" // admission level changed (value = classes shed)
	TracePark       = "park"       // plan controller resized a tier's active pool (value = parked count after)
)
