package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// percentileLadder lists the percentiles a timing may be reported at, in
// per-mille, lowest first.
var percentileLadder = []int{500, 900, 950, 990, 999}

// tailPerMille returns the highest percentile on the ladder (in per-mille)
// that leaves at least ten of n samples strictly beyond its nearest-rank
// position, or 0 when even the median does not (n < 20). At n = 100 that is
// the 90th percentile; at n = 200 the 95th.
func tailPerMille(n int) int {
	best := 0
	for _, p := range percentileLadder {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rankOf is the 1-based nearest-rank position of the p-per-mille percentile
// among n samples: ceil(p·n/1000), computed in integers.
func rankOf(p, n int) int {
	r := (p*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-per-mille percentile of xs (NaN
// for no samples). xs is not modified.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 500) }

// tailOrBest returns the 90th percentile of xs from 100 samples up, and
// below that the highest percentile that still leaves ten samples beyond
// it, but never less than the median. Per-layer tails use it; the
// end-to-end tail requires the full 90th percentile instead.
func tailOrBest(xs []float64) float64 {
	n := len(xs)
	if n >= 100 {
		return percentile(xs, 900)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(n-10, rankOf(500, n))-1]
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetricName rejects a name the result line may not carry.
func checkMetricName(name string) error {
	if len(name) > 64 || !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", name)
	}
	return nil
}
