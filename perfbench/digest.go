package main

import (
	"encoding/binary"
	"math"
	"sort"

	"clusterq/internal/sim"
	"clusterq/internal/stats"
)

// digest is an FNV-1a hash over a pass's results: every simulated
// statistic, plan vector and controller counter the pass produced. Results
// are a pure function of the seed, so every pass of a run must agree.
type digest struct {
	h   uint64
	buf [8]byte
}

func (d *digest) word(u uint64) {
	if d.h == 0 {
		d.h = 14695981039346656037
	}
	binary.LittleEndian.PutUint64(d.buf[:], u)
	for _, b := range d.buf {
		d.h ^= uint64(b)
		d.h *= 1099511628211
	}
}

func (d *digest) f(xs ...float64) {
	for _, x := range xs {
		d.word(math.Float64bits(x))
	}
}

func (d *digest) i(xs ...int64) {
	for _, x := range xs {
		d.word(uint64(x))
	}
}

func (d *digest) est(es ...stats.Estimate) {
	for _, e := range es {
		d.f(e.Mean, e.HalfW, e.Level)
		d.i(e.Samples, e.Batches)
	}
}

func (d *digest) sum() uint64 { return d.h }

// result folds every field of a simulation result into the digest.
func (d *digest) result(r *sim.Result) {
	d.est(r.Delay...)
	for _, q := range r.DelayQuantile {
		ps := make([]float64, 0, len(q))
		for p := range q {
			ps = append(ps, p)
		}
		sort.Float64s(ps)
		for _, p := range ps {
			d.f(p, q[p])
		}
	}
	d.est(r.WeightedDelay, r.TotalPower)
	d.est(r.EnergyPerRequest...)
	for _, t := range r.Tiers {
		d.est(t.Utilization, t.Power)
		d.est(t.WaitByClass...)
	}
	d.i(r.Completed...)
	d.est(r.Goodput...)
	for _, cs := range [][]int64{r.Timeouts, r.Retries, r.Abandoned, r.Shed} {
		d.i(cs...)
	}
	d.i(int64(r.Replications))
}

// sum64 totals a per-class counter.
func sum64(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}
