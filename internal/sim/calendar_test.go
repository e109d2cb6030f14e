package sim

import (
	"sort"
	"testing"
)

// refEvent is one entry of the reference calendar: the fields a popped event
// must reproduce.
type refEvent struct {
	time float64
	seq  uint64
	gen  uint64
	kind eventKind
}

// driveCalendarAgainstReference runs the calendar and a plain reference — a
// slice kept sorted by (time, seq) — through an identical randomized
// workload: schedules (plain and gen-stamped, with far-future, near-term,
// exactly-tied and exactly-now times), single pops, and AdvanceTo-style
// drains. It asserts the calendar pops the reference's sequence element for
// element, gen stamps included, and that peekTime and the clock agree. ops
// bounds the workload length so the fuzz harness stays fast.
func driveCalendarAgainstReference(t *testing.T, seed uint64, ops int) {
	t.Helper()
	cal := newCalendar()
	var ref []refEvent
	var refSeq uint64
	rng := NewRNG(seed)
	pops := 0

	popBoth := func() bool {
		ct, cok := cal.peekTime()
		if cok != (len(ref) > 0) || (cok && ct != ref[0].time) {
			t.Fatalf("pop %d: peekTime (%v,%v) with %d reference events left", pops, ct, cok, len(ref))
		}
		e := cal.next()
		if (e == nil) != (len(ref) == 0) {
			t.Fatalf("pop %d: calendar nil=%v with %d reference events left", pops, e == nil, len(ref))
		}
		if e == nil {
			return false
		}
		want := ref[0]
		ref = ref[1:]
		if e.time != want.time || e.seq != want.seq || e.gen != want.gen || e.kind != want.kind {
			t.Fatalf("pop %d diverged: calendar (t=%v seq=%d gen=%d kind=%d) reference (t=%v seq=%d gen=%d kind=%d)",
				pops, e.time, e.seq, e.gen, e.kind, want.time, want.seq, want.gen, want.kind)
		}
		if cal.now != want.time {
			t.Fatalf("pop %d: clock %v, want %v", pops, cal.now, want.time)
		}
		cal.recycle(e)
		pops++
		return true
	}

	schedule := func() {
		// A mix biased toward the simulator's schedule-at-now+Δ pattern,
		// with deliberate exact time ties so the seq tie-break is exercised
		// on every run.
		var at float64
		switch rng.Uint64() % 6 {
		case 0: // far future
			at = cal.now + rng.Float64()*1e4
		case 1: // mid range
			at = cal.now + rng.Float64()*100
		case 2: // near term
			at = cal.now + rng.Float64()
		case 3: // exact tie grid: many bitwise-equal times
			at = cal.now + float64(rng.Uint64()%16)
		case 4: // tight non-equal cluster: times a hair apart
			at = cal.now + 10 + rng.Float64()*0.01
		default: // exactly now: ordering is pure seq
			at = cal.now
		}
		r := refEvent{time: at, seq: refSeq, kind: evArrival}
		refSeq++
		if rng.Uint64()%4 == 0 {
			// The gen-stamped path deadlines use (scheduleGen): the stamp
			// must ride along unperturbed for staleness checks to work.
			r.gen, r.kind = rng.Uint64()%8, evTimeout
			cal.scheduleGen(at, evTimeout, 0, nil, 0, r.gen)
		} else {
			cal.schedule(at, evArrival, 0, nil, 0, nil)
		}
		// seq only grows, so a new event goes after every reference entry
		// at the same time.
		i := sort.Search(len(ref), func(i int) bool { return ref[i].time > at })
		ref = append(ref, refEvent{})
		copy(ref[i+1:], ref[i:])
		ref[i] = r
	}

	for i := 0; i < ops; i++ {
		switch op := rng.Uint64() % 10; {
		case op < 5 || len(ref) == 0:
			schedule()
		case op < 8:
			popBoth()
		default:
			// AdvanceTo-style drain: pop everything at or before a target
			// time, exactly how the step engine and the shared-clock
			// orchestrator consume the calendar.
			target := cal.now + rng.Float64()*50
			for {
				et, ok := cal.peekTime()
				if !ok || et > target {
					break
				}
				popBoth()
			}
		}
	}
	// Drain completely: the tail must match too.
	for popBoth() {
	}
	if !cal.empty() {
		t.Fatal("calendar reports non-empty after drain")
	}
}

// TestCalendarPopOrder is the property test: across many seeds, the
// calendar pops randomized workloads in exactly the (time, seq) order of a
// sorted reference. Every golden hash rests on this order.
func TestCalendarPopOrder(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		driveCalendarAgainstReference(t, seed, 4000)
	}
}

// FuzzCalendarPopOrder lets the fuzzer search the workload space for a seed
// whose pop order departs from the reference. The corpus seeds cover the
// regimes the property test already walks; `go test -fuzz
// FuzzCalendarPopOrder` digs further.
func FuzzCalendarPopOrder(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Add(uint64(42))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		driveCalendarAgainstReference(t, seed, 1500)
	})
}
