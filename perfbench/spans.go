package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
type span struct {
	name       string
	id, parent int // parent is -1 for a root span
	op         int // the operation (solve, replication, epoch, fleet run) it serves
	start, end time.Duration
	allocs     uint64 // heap objects allocated between start and end
}

func (s span) dur() time.Duration { return s.end - s.start }

// layer is the span name's first dot-separated component.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer times the benchmark's calls into the program. Untraced, begin/end
// only read the clock, so the end-to-end run pays two clock reads per timed
// call. Traced, every call also becomes a span held in memory, with the
// heap objects it allocated, and nesting gives each span its parent. The
// benchmark drives the program from one goroutine, so calls nest strictly.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int
	nOps  int
	ms    runtime.MemStats
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// newOp allocates an operation id; setOp makes later root spans carry it.
func (t *tracer) newOp() int   { t.nOps++; return t.nOps }
func (t *tracer) setOp(op int) { t.op = op }

type mark struct {
	idx    int
	start  time.Time
	allocs uint64
}

func (t *tracer) begin(name string) mark {
	if !t.on {
		return mark{idx: -1, start: time.Now()}
	}
	runtime.ReadMemStats(&t.ms)
	parent, op := -1, t.op
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		op = t.spans[parent].op
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, id: idx, parent: parent, op: op})
	t.stack = append(t.stack, idx)
	m := mark{idx: idx, allocs: t.ms.Mallocs, start: time.Now()}
	t.spans[idx].start = m.start.Sub(t.t0)
	return m
}

// end closes the span begun by m and returns the call's duration.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	d := now.Sub(m.start)
	if m.idx < 0 {
		return d
	}
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[m.idx]
	sp.end = now.Sub(t.t0)
	sp.allocs = t.ms.Mallocs - m.allocs
	t.stack = t.stack[:len(t.stack)-1]
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, children []span) time.Duration {
	sort.Slice(children, func(a, b int) bool { return children[a].start < children[b].start })
	var total time.Duration
	curS, curE := time.Duration(0), time.Duration(-1)
	for _, c := range children {
		s, e := max(c.start, p.start), min(c.end, p.end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfAllocs is allocs minus the direct children's allocs.
func selfAllocs(spans []span) []uint64 {
	out := make([]uint64, len(spans))
	for i, s := range spans {
		out[i] = s.allocs
	}
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] -= s.allocs
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load: one complete ("X") event per span on
// a single track, with the layer as category.
func writeChromeTrace(w io.Writer, spans []span) error {
	type args struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Op     int    `json:"op"`
		Allocs uint64 `json:"allocs"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args{ID: s.id, Parent: s.parent, Op: s.op, Allocs: s.allocs},
		}
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// writeLayerTable writes one row per layer: span count, total and self
// time, and the layer's share of all self time.
func writeLayerTable(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	var all time.Duration
	for i, s := range spans {
		r := rows[s.layer()]
		if r == nil {
			r = &row{}
			rows[s.layer()] = r
		}
		r.n++
		r.self += self[i]
		r.total += s.dur()
		all += self[i]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "%-10s %8s %12s %12s %7s\n", "layer", "spans", "total ms", "self ms", "self %"); err != nil {
		return err
	}
	for _, n := range names {
		r := rows[n]
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.self) / float64(all)
		}
		if _, err := fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f %7.2f\n", n, r.n,
			ms(r.total), ms(r.self), share); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
