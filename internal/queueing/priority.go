package queueing

import (
	"fmt"
	"math"
)

// Discipline selects the scheduling policy of a priority station.
type Discipline int

const (
	// FCFS serves all classes in arrival order (no priority).
	FCFS Discipline = iota
	// NonPreemptive serves the highest-priority waiting class next but
	// never interrupts a job in service.
	NonPreemptive
	// PreemptiveResume interrupts lower-priority service immediately and
	// resumes it later from where it stopped.
	PreemptiveResume
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "FCFS"
	case NonPreemptive:
		return "non-preemptive"
	case PreemptiveResume:
		return "preemptive-resume"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// ClassInput describes one customer class at a station: Poisson arrival rate
// and service-time distribution. Classes are ordered by priority, index 0
// highest.
type ClassInput struct {
	Lambda  float64
	Service ServiceDist
}

// PriorityMG1 computes per-class mean waiting and response times for a
// single-server queue with Poisson arrivals, general service, and the given
// discipline. The returned slices are indexed by class. It is a thin wrapper
// over PriorityMG1Into, which holds the formulas.
func PriorityMG1(classes []ClassInput, d Discipline) (wait, resp []float64, err error) {
	lam, mean, second, err := classMoments(classes)
	if err != nil {
		return nil, nil, err
	}
	wait, resp = make([]float64, len(classes)), make([]float64, len(classes))
	if err := PriorityMG1Into(lam, mean, second, d, wait, resp); err != nil {
		return nil, nil, err
	}
	return wait, resp, nil
}

// PriorityMG1Into is PriorityMG1 over per-class moments — arrival rate
// lambda[k], mean service time mean[k] = E[S_k] and second moment
// second[k] = E[S_k²] — writing into the caller's wait and resp slices
// (all of length K). It allocates nothing.
//
// Formulas (classes 0..K−1, 0 highest priority, ρ_k = λ_k E[S_k],
// σ_k = ρ_0 + … + ρ_k, R_k = Σ_{i≤k} λ_i E[S_i²]/2, R = R_{K−1}):
//
//	FCFS:               W_k = R / (1 − σ_{K−1})           (P–K, same for all k)
//	Non-preemptive:     W_k = R / ((1 − σ_{k−1})(1 − σ_k))  (Cobham)
//	Preemptive-resume:  T_k = E[S_k]/(1 − σ_{k−1}) + R_k/((1 − σ_{k−1})(1 − σ_k))
//
// Classes whose formula diverges (the relevant σ ≥ 1) get +Inf.
func PriorityMG1Into(lambda, mean, second []float64, d Discipline, wait, resp []float64) error {
	if err := validateMoments(lambda, mean, second, wait, resp); err != nil {
		return err
	}
	// The totals come first; the per-class pass then re-accumulates the
	// cumulative σ_k and R_k in the same order, so no scratch is needed.
	total, rTotal := 0.0, 0.0
	for i := range lambda {
		total += lambda[i] * mean[i]
		rTotal += lambda[i] * second[i] / 2
	}
	cum, rcum := 0.0, 0.0
	for i := range lambda {
		es := mean[i]
		prev := cum
		cum += lambda[i] * es
		rcum += lambda[i] * second[i] / 2
		switch d {
		case FCFS:
			if total >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = rTotal / (1 - total)
			resp[i] = wait[i] + es
		case NonPreemptive:
			if cum >= 1 || prev >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			// Cobham: delayed by the residual of whoever is in
			// service, including lower-priority classes.
			wait[i] = rTotal / ((1 - prev) * (1 - cum))
			resp[i] = wait[i] + es
		case PreemptiveResume:
			if cum >= 1 || prev >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			resp[i] = es/(1-prev) + rcum/((1-prev)*(1-cum))
			wait[i] = resp[i] - es
		default:
			return fmt.Errorf("queueing: unknown discipline %v", d)
		}
	}
	return nil
}

// PriorityMMc computes per-class mean waiting and response times for a
// c-server station under non-preemptive priority or FCFS. It is a thin
// wrapper over PriorityMMcInto, which holds the formulas.
func PriorityMMc(classes []ClassInput, c int, d Discipline) (wait, resp []float64, err error) {
	lam, mean, second, err := classMoments(classes)
	if err != nil {
		return nil, nil, err
	}
	wait, resp = make([]float64, len(classes)), make([]float64, len(classes))
	if err := PriorityMMcInto(lam, mean, second, c, d, wait, resp); err != nil {
		return nil, nil, err
	}
	return wait, resp, nil
}

// PriorityMMcInto is PriorityMMc over per-class moments (see
// PriorityMG1Into), writing into the caller's wait and resp slices. It
// allocates nothing.
//
// When all classes share the same exponential service time the non-preemptive
// result is exact (Kella–Yechiali):
//
//	W_k = C(c, a) / (cμ) · 1 / ((1 − σ_{k−1})(1 − σ_k))
//
// With class-dependent or non-exponential service the function applies the
// standard two-moment correction (1+CV²_agg)/2 on the aggregate service
// distribution and uses per-class σ; this is an approximation, validated by
// the simulator in internal/sim. PreemptiveResume with c > 1 has no usable
// closed form and returns an error; use c = 1 or the simulator.
func PriorityMMcInto(lambda, mean, second []float64, c int, d Discipline, wait, resp []float64) error {
	if err := validateMoments(lambda, mean, second, wait, resp); err != nil {
		return err
	}
	if c < 1 {
		return fmt.Errorf("queueing: server count %d < 1", c)
	}
	if c == 1 {
		return PriorityMG1Into(lambda, mean, second, d, wait, resp)
	}
	if d == PreemptiveResume {
		return fmt.Errorf("queueing: no closed form for preemptive-resume with %d > 1 servers", c)
	}

	k := len(lambda)
	// Aggregate service distribution moments over the class mix.
	var lamTot, m1, m2, total float64
	for i := range lambda {
		lamTot += lambda[i]
		m1 += lambda[i] * mean[i]
		m2 += lambda[i] * second[i]
		total += lambda[i] * mean[i] / float64(c)
	}
	if lamTot == 0 {
		for i := range lambda {
			wait[i] = 0
			resp[i] = mean[i]
		}
		return nil
	}
	m1 /= lamTot // aggregate E[S]
	m2 /= lamTot // aggregate E[S²]
	cv2 := m2/(m1*m1) - 1

	a := lamTot * m1 // offered load in Erlangs
	pd := ErlangC(c, a)
	// Base delay factor: mean wait of the aggregate M/M/c scaled by the
	// two-moment G-correction, with the (1−ρ) terms split per class below.
	base := (1 + cv2) / 2 * pd * m1 / float64(c)

	cum := 0.0
	for i := 0; i < k; i++ {
		prev := cum
		cum += lambda[i] * mean[i] / float64(c)
		switch d {
		case FCFS:
			if total >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = base / (1 - total)
		case NonPreemptive:
			if cum >= 1 || prev >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = base / ((1 - prev) * (1 - cum))
		default:
			return fmt.Errorf("queueing: unknown discipline %v", d)
		}
		resp[i] = wait[i] + mean[i]
	}
	return nil
}

// AggregateUtilization returns σ = Σ λ_k E[S_k] / c for the class set.
func AggregateUtilization(classes []ClassInput, c int) float64 {
	var u float64
	for _, cl := range classes {
		u += cl.Lambda * cl.Service.Mean()
	}
	return u / float64(c)
}

// classMoments validates the class inputs and splits them into the moment
// vectors the Into forms take.
func classMoments(classes []ClassInput) (lambda, mean, second []float64, err error) {
	if err := validateClasses(classes); err != nil {
		return nil, nil, nil, err
	}
	lambda = make([]float64, len(classes))
	mean = make([]float64, len(classes))
	second = make([]float64, len(classes))
	for i, c := range classes {
		lambda[i], mean[i], second[i] = c.Lambda, c.Service.Mean(), c.Service.SecondMoment()
	}
	return lambda, mean, second, nil
}

// validateMoments checks the moment vectors and the output slices of the
// Into forms, with the same messages validateClasses gives.
func validateMoments(lambda, mean, second, wait, resp []float64) error {
	k := len(lambda)
	if k == 0 {
		return fmt.Errorf("queueing: no classes")
	}
	if len(mean) != k || len(second) != k || len(wait) != k || len(resp) != k {
		return fmt.Errorf("queueing: moment and result vectors must all have %d entries", k)
	}
	for i, l := range lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("queueing: class %d has invalid arrival rate %g", i, l)
		}
		if !(mean[i] > 0) {
			return fmt.Errorf("queueing: class %d has invalid service distribution", i)
		}
	}
	return nil
}

func validateClasses(classes []ClassInput) error {
	if len(classes) == 0 {
		return fmt.Errorf("queueing: no classes")
	}
	for i, c := range classes {
		if c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
			return fmt.Errorf("queueing: class %d has invalid arrival rate %g", i, c.Lambda)
		}
		if c.Service == nil || !(c.Service.Mean() > 0) {
			return fmt.Errorf("queueing: class %d has invalid service distribution", i)
		}
	}
	return nil
}
