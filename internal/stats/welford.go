// Package stats provides the statistical machinery used throughout clusterq:
// streaming moment accumulators, quantile estimation, batch-means confidence
// intervals for steady-state simulation output, and the special functions
// (gamma, incomplete beta, Student-t) they require.
//
// Everything is implemented from scratch on top of the standard library so
// the module stays dependency-free.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates count, mean and variance of a stream of observations
// using Welford's numerically stable online algorithm. The zero value is an
// empty accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddN incorporates an observation with integer weight n ≥ 1, equivalent to
// calling Add(x) n times.
func (w *Welford) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		w.Add(x)
	}
}

// Merge combines another accumulator into w (parallel variance formula by
// Chan et al.). The other accumulator is left unchanged.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Count returns the number of observations seen so far.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (divisor n-1), or NaN when
// fewer than two observations have been added.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population variance (divisor n), or NaN when empty.
func (w *Welford) PopVariance() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(w.Variance() / float64(w.n))
}

// Min returns the smallest observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Sum returns the running total of all observations.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Reset returns the accumulator to its empty state.
func (w *Welford) Reset() { *w = Welford{} }

// CI returns a two-sided Student-t confidence interval half-width for the
// mean at the given confidence level (e.g. 0.95). It returns NaN when fewer
// than two observations have been recorded.
func (w *Welford) CI(level float64) float64 {
	if w.n < 2 {
		return math.NaN()
	}
	t := TQuantile(1-(1-level)/2, float64(w.n-1))
	return t * w.StdErr()
}

// String summarizes the accumulator for diagnostics.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// TimeWeighted accumulates the time average of a piecewise-constant signal,
// such as queue length or instantaneous power in a discrete-event simulation.
// Call Observe(value, now) every time the signal changes; the value is held
// from the previous observation time until now.
type TimeWeighted struct {
	started bool
	lastT   float64
	lastV   float64
	area    float64
	origin  float64
}

// StartAt initializes the signal at time t with value v.
func (tw *TimeWeighted) StartAt(t, v float64) {
	tw.started = true
	tw.origin = t
	tw.lastT = t
	tw.lastV = v
	tw.area = 0
}

// Observe records that the signal changed to value v at time t. The previous
// value is integrated over [lastT, t]. Observing before StartAt starts the
// signal at t.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.StartAt(t, v)
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: TimeWeighted.Observe time went backwards: %g < %g", t, tw.lastT))
	}
	tw.area += tw.lastV * (t - tw.lastT)
	tw.lastT = t
	tw.lastV = v
}

// MeanAt returns the time average over [origin, t], extending the current
// value to t.
func (tw *TimeWeighted) MeanAt(t float64) float64 {
	if !tw.started || t <= tw.origin {
		return math.NaN()
	}
	area := tw.area + tw.lastV*(t-tw.lastT)
	return area / (t - tw.origin)
}

// Value returns the current signal value.
func (tw *TimeWeighted) Value() float64 { return tw.lastV }

// Elapsed returns the observation span up to the given time.
func (tw *TimeWeighted) Elapsed(t float64) float64 { return t - tw.origin }
