package main

import (
	"math/rand/v2"
	"time"
)

// calibSink keeps the calibration loop's and the probe's results live.
var calibSink uint64

// calibrate times a fixed CPU-bound loop (integer mixing plus a dependent
// floating-point chain, no memory traffic beyond registers) once. Its
// duration in ns is reported as bench.calib_ns, so runs on different hosts
// compare as ratios of their timings to it.
func calibrate() float64 {
	t := time.Now()
	x, f := uint64(0x9E3779B97F4A7C15), 1.0
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x>>40)*1e-12
	}
	calibSink += x + uint64(f)
	return float64(time.Since(t).Nanoseconds())
}

// The speed probe is a fixed piece of work that slows down with the host
// the way the program does. The host shares its cores and caches, and its
// speed drifts by tens of percent over minutes; the register-only
// calibration loop hardly moves with it. The probe mixes three kinds of
// work, each of which slows differently under a busy neighbour: a small
// discrete-event simulation (a binary-heap calendar, exponential draws,
// per-queue accumulators), a sequential write over a 1 MiB buffer, and hits
// and misses in a hash map. It runs before every set-up and at every step
// boundary, and each timing is scaled by probeRefNs over the probe times
// around it (passOut.segScales), so it reads as on a host where the probe
// takes probeRefNs. The probe allocates nothing, so it leaves the
// collector's pacing and alloc_mb alone.
const (
	probeRefNs    = 0.85e6 // the probe's time on a calm 2-vCPU KVM guest of a shared Xeon host
	probeEvents   = 2000
	probeQueues   = 64
	probeBufWords = 1 << 17 // 1 MiB
	probeBufLaps  = 2
	probeMapKeys  = 4096
	probeMapOps   = 30000
)

type probeEvent struct {
	t       float64
	depart  bool
	station int32
}

var probeState struct {
	src  rand.PCG
	rng  *rand.Rand
	heap []probeEvent
	qlen [probeQueues]int32
	area [probeQueues]float64
	last [probeQueues]float64
	buf  []uint64
	m    map[int32]int64
}

func init() {
	probeState.rng = rand.New(&probeState.src)
	probeState.heap = make([]probeEvent, 0, 4*probeQueues)
	probeState.buf = make([]uint64, probeBufWords)
	probeState.m = make(map[int32]int64, probeMapKeys)
	for k := int32(0); k < probeMapKeys; k++ {
		probeState.m[k] = 0
	}
}

// probe runs the speed probe once and returns its duration in ns. Every
// call does the same work: the simulation restarts from the same seed.
func probe() float64 {
	s := &probeState
	t := time.Now()
	s.src.Seed(1, 2)
	s.heap = s.heap[:0]
	for q := range s.qlen {
		s.qlen[q], s.area[q], s.last[q] = 0, 0, 0
		probePush(probeEvent{t: s.rng.ExpFloat64(), station: int32(q)})
	}
	for k := 0; k < probeEvents; k++ {
		e := probePop()
		q := e.station
		s.area[q] += float64(s.qlen[q]) * (e.t - s.last[q])
		s.last[q] = e.t
		switch {
		case !e.depart:
			s.qlen[q]++
			probePush(probeEvent{t: e.t + 1.25*s.rng.ExpFloat64(), station: q})
			if s.qlen[q] == 1 {
				probePush(probeEvent{t: e.t + s.rng.ExpFloat64(), depart: true, station: q})
			}
		default:
			s.qlen[q]--
			if s.qlen[q] > 0 {
				probePush(probeEvent{t: e.t + s.rng.ExpFloat64(), depart: true, station: q})
			}
		}
	}
	for lap := 0; lap < probeBufLaps; lap++ {
		for i := range s.buf {
			s.buf[i] = uint64(i+lap) ^ uint64(s.qlen[i%probeQueues])
		}
	}
	// Every key below probeMapKeys is present, so the map never grows:
	// half the operations update a present key and half miss.
	var hits int64
	for i := int32(0); i < probeMapOps; i++ {
		k := (i * 40503) & (2*probeMapKeys - 1)
		if v, ok := s.m[k]; ok {
			s.m[k] = v + int64(i)
			hits++
		}
	}
	var sum float64
	for _, a := range s.area {
		sum += a
	}
	calibSink += uint64(sum) + s.buf[len(s.buf)-1] + uint64(hits)
	return float64(time.Since(t).Nanoseconds())
}

func probePush(e probeEvent) {
	h := append(probeState.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	probeState.heap = h
}

func probePop() probeEvent {
	h := probeState.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if l+1 < n && h[l+1].t < h[l].t {
			l++
		}
		if h[i].t <= h[l].t {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	probeState.heap = h
	return e
}
