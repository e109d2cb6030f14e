package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestP2QuantileSmallSamples(t *testing.T) {
	q := NewP2Quantile(0.5)
	if !math.IsNaN(q.Value()) {
		t.Error("empty estimator should return NaN")
	}
	q.Add(3)
	if q.Value() != 3 {
		t.Errorf("single obs value = %g", q.Value())
	}
	q.Add(1)
	q.Add(2)
	v := q.Value()
	if v < 1 || v > 3 {
		t.Errorf("small-sample median = %g outside data range", v)
	}
}

// TestP2QuantileSmallSampleMatchesExact pins the small-sample fallback to the
// nearest-rank definition: with fewer than five observations, Value must
// return exactly what ExactQuantile returns on the same data. The pre-fix
// fallback used a different rank formula and disagreed (e.g. p=0.5 on two
// samples picked the larger one).
func TestP2QuantileSmallSampleMatchesExact(t *testing.T) {
	data := []float64{7, 2, 9, 4} // insertion order deliberately unsorted
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.95} {
		for n := 1; n <= len(data); n++ {
			q := NewP2Quantile(p)
			for _, x := range data[:n] {
				q.Add(x)
			}
			want := ExactQuantile(data[:n], p)
			if got := q.Value(); got != want {
				t.Errorf("p=%g n=%d: P2 small-sample = %g, ExactQuantile = %g", p, n, got, want)
			}
		}
	}
}

func TestP2QuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		q := NewP2Quantile(p)
		for i := 0; i < 200000; i++ {
			q.Add(rng.Float64())
		}
		if got := q.Value(); math.Abs(got-p) > 0.01 {
			t.Errorf("uniform %g-quantile = %g", p, got)
		}
	}
}

func TestP2QuantileExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := NewP2Quantile(0.95)
	for i := 0; i < 300000; i++ {
		q.Add(rng.ExpFloat64())
	}
	want := -math.Log(0.05) // 2.9957
	if got := q.Value(); math.Abs(got-want)/want > 0.03 {
		t.Errorf("exp 95th percentile = %g, want ≈%g", got, want)
	}
}

func TestP2QuantileMonotoneAcrossP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewQuantileSet(0.25, 0.5, 0.75, 0.95)
	for i := 0; i < 50000; i++ {
		s.Add(rng.NormFloat64())
	}
	q25, q50 := s.Value(0.25), s.Value(0.5)
	q75, q95 := s.Value(0.75), s.Value(0.95)
	if !(q25 < q50 && q50 < q75 && q75 < q95) {
		t.Errorf("quantiles not ordered: %g %g %g %g", q25, q50, q75, q95)
	}
	if !math.IsNaN(s.Value(0.33)) {
		t.Error("unconfigured quantile should be NaN")
	}
}

func TestP2QuantileInvalidP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%g) should panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}

func TestExactQuantile(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	if got := ExactQuantile(data, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := ExactQuantile(data, 0.01); got != 1 {
		t.Errorf("low quantile = %g, want 1", got)
	}
	if got := ExactQuantile(data, 1.0); got != 5 {
		t.Errorf("max quantile = %g, want 5", got)
	}
	if !math.IsNaN(ExactQuantile(nil, 0.5)) {
		t.Error("empty data should return NaN")
	}
	// Must not mutate caller's slice.
	if data[0] != 5 {
		t.Error("ExactQuantile mutated input")
	}
}

func TestBatchMeansBasics(t *testing.T) {
	b := NewBatchMeans(10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		b.Add(5 + rng.NormFloat64())
	}
	if b.Count() != 1000 || b.Batches() != 100 {
		t.Fatalf("count=%d batches=%d", b.Count(), b.Batches())
	}
	if math.Abs(b.Mean()-5) > 0.2 {
		t.Errorf("mean = %g", b.Mean())
	}
	ci := b.CI(0.95)
	if !(ci > 0 && ci < 1) {
		t.Errorf("ci = %g", ci)
	}
	if rp := b.RelativePrecision(0.95); !almostEq(rp, ci/b.Mean(), 1e-12) {
		t.Errorf("relative precision = %g", rp)
	}
}

func TestBatchMeansCICoversCorrelatedMean(t *testing.T) {
	// AR(1) sequence: naive i.i.d. CI would be far too small; batch means
	// with large batches should still cover the true mean most of the time.
	covered := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		b := NewBatchMeans(500)
		x := 0.0
		const phi = 0.9
		for i := 0; i < 50000; i++ {
			x = phi*x + rng.NormFloat64()
			b.Add(x) // true mean is 0
		}
		if math.Abs(b.Mean()) <= b.CI(0.95) {
			covered++
		}
	}
	if covered < trials*3/4 {
		t.Errorf("batch-means CI covered true mean only %d/%d times", covered, trials)
	}
}

func TestBatchMeansInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for batch size 0")
		}
	}()
	NewBatchMeans(0)
}

func TestEstimateHelpers(t *testing.T) {
	e := Estimate{Mean: 10, HalfW: 1, Level: 0.95, Samples: 100}
	if !e.Contains(10.5) || e.Contains(12) {
		t.Error("Contains misbehaves")
	}
	if got := e.RelErr(8); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("RelErr = %g", got)
	}
	if got := e.RelErr(0); got != 10 {
		t.Errorf("RelErr vs 0 = %g", got)
	}
	noCI := Estimate{Mean: 1, HalfW: math.NaN()}
	if !noCI.Contains(99) {
		t.Error("estimate without CI should soft-contain anything")
	}
}
