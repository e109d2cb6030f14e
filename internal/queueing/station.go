package queueing

import (
	"fmt"
	"math"
)

// Demand describes the work a request of one class brings to a station:
// Work is the mean amount of work in abstract work units; CV2 is the squared
// coefficient of variation of that work. A station running at speed s
// (work units per time) turns the demand into a service time with mean
// Work/s and the same CV².
type Demand struct {
	Work float64
	CV2  float64
}

// Station is a multi-server queueing station with a controllable speed: the
// model of one tier of the cluster. All servers in the station run at the
// same speed; Speed is the DVFS-controlled rate in work units per time.
type Station struct {
	Name       string
	Servers    int
	Speed      float64
	Discipline Discipline
	Demands    []Demand // indexed by class; len = number of classes
}

// Validate checks the station's structural parameters.
func (s *Station) Validate(numClasses int) error {
	if s.Servers < 1 {
		return fmt.Errorf("queueing: station %q has %d servers", s.Name, s.Servers)
	}
	if !(s.Speed > 0) {
		return fmt.Errorf("queueing: station %q has non-positive speed %g", s.Name, s.Speed)
	}
	if len(s.Demands) != numClasses {
		return fmt.Errorf("queueing: station %q has %d demands for %d classes",
			s.Name, len(s.Demands), numClasses)
	}
	for k, d := range s.Demands {
		if !(d.Work > 0) {
			return fmt.Errorf("queueing: station %q class %d has non-positive work %g", s.Name, k, d.Work)
		}
		if !(d.CV2 >= 0) || math.IsInf(d.CV2, 1) {
			return fmt.Errorf("queueing: station %q class %d has invalid CV² %g", s.Name, k, d.CV2)
		}
	}
	return nil
}

// ServiceDistFor returns the service-time distribution of class k at the
// station's current speed: mean Work/Speed with the demand's CV², realized
// as Deterministic (CV²=0), Erlang (CV²<1), Exponential (CV²=1) or balanced
// hyperexponential (CV²>1).
func (s *Station) ServiceDistFor(k int) ServiceDist {
	d := s.Demands[k]
	return DistForCV2(d.Work/s.Speed, d.CV2)
}

// DistForCV2 constructs a service distribution with the given mean and
// squared coefficient of variation using the standard moment-matching
// recipes of queueing analysis: Deterministic (CV²=0), Erlang (CV²<1),
// Exponential (CV²=1) or balanced hyperexponential (CV²>1). It panics on a
// CV² ShapeForCV2 rejects.
func DistForCV2(mean, cv2 float64) ServiceDist {
	sh, err := ShapeForCV2(cv2)
	if err != nil {
		panic(err.Error())
	}
	switch sh.family {
	case shapeDeterministic:
		return NewDeterministic(mean)
	case shapeErlang:
		return NewErlang(mean, sh.k)
	case shapeExponential:
		return NewExponential(mean)
	default:
		return NewHyperExpCV2(mean, cv2)
	}
}

// Shape is the mean-free part of the distribution DistForCV2 picks for a
// squared coefficient of variation: the family, plus the Erlang stage count
// or the balanced hyperexponential's phase probability. Moments(mean)
// returns DistForCV2(mean, cv2)'s Mean and SecondMoment without building
// the distribution as an interface value, so a model compiled once can
// evaluate service moments at any speed without allocating.
type Shape struct {
	family shapeFamily
	k      int     // Erlang stages
	p      float64 // hyperexponential: probability of phase 1
}

type shapeFamily uint8

const (
	shapeDeterministic shapeFamily = iota
	shapeErlang
	shapeExponential
	shapeHyperExp
)

// ShapeForCV2 returns the shape DistForCV2 uses for cv2; NaN, infinite and
// negative values are rejected.
func ShapeForCV2(cv2 float64) (Shape, error) {
	switch {
	case !(cv2 >= 0) || math.IsInf(cv2, 1):
		return Shape{}, fmt.Errorf("queueing: CV² %g must be finite and non-negative", cv2)
	case cv2 == 0:
		return Shape{family: shapeDeterministic}, nil
	case cv2 < 1:
		// Erlang-k with k = round(1/cv²); exact when 1/cv² is integral.
		k := int(math.Round(1 / cv2))
		if k < 1 {
			k = 1
		}
		return Shape{family: shapeErlang, k: k}, nil
	//lint:waive floateq reason="deliberate exact compare: CV^2 exactly 1 selects the exponential family" until=2027-08-01
	case cv2 == 1:
		return Shape{family: shapeExponential}, nil
	default:
		return Shape{family: shapeHyperExp, p: balancedPhase(cv2)}, nil
	}
}

// Moments returns E[S] and E[S²] of the shape at the given mean, computed by
// the distribution types' own Mean and SecondMoment on values, so they are
// bit-identical to DistForCV2's.
func (s Shape) Moments(mean float64) (m1, m2 float64) {
	switch s.family {
	case shapeDeterministic:
		d := Deterministic{M: mean}
		return d.Mean(), d.SecondMoment()
	case shapeErlang:
		e := Erlang{M: mean, K: s.k}
		return e.Mean(), e.SecondMoment()
	case shapeExponential:
		e := Exponential{M: mean}
		return e.Mean(), e.SecondMoment()
	default:
		h := HyperExp{P: s.p, M1: mean / (2 * s.p), M2: mean / (2 * (1 - s.p))}
		return h.Mean(), h.SecondMoment()
	}
}

// ClassInputs builds the per-class queueing inputs for the station given the
// per-class arrival rates (indexed like Demands).
func (s *Station) ClassInputs(lambda []float64) []ClassInput {
	in := make([]ClassInput, len(s.Demands))
	for k := range s.Demands {
		in[k] = ClassInput{Lambda: lambda[k], Service: s.ServiceDistFor(k)}
	}
	return in
}

// Utilization returns the per-server utilization of the station under the
// given arrival rates.
func (s *Station) Utilization(lambda []float64) float64 {
	return AggregateUtilization(s.ClassInputs(lambda), s.Servers)
}

// ResponseTimes returns per-class mean waiting and response times at the
// station under the given per-class arrival rates.
func (s *Station) ResponseTimes(lambda []float64) (wait, resp []float64, err error) {
	return PriorityMMc(s.ClassInputs(lambda), s.Servers, s.Discipline)
}

// MinSpeedForStability returns the smallest speed at which the station is
// stable (utilization < 1) for the given arrival rates; callers should add
// headroom above it.
func (s *Station) MinSpeedForStability(lambda []float64) float64 {
	var work float64
	for k, d := range s.Demands {
		work += lambda[k] * d.Work
	}
	return work / float64(s.Servers)
}

// Clone returns a deep copy of the station; mutating the copy's Demands does
// not affect the original.
func (s *Station) Clone() *Station {
	c := *s
	c.Demands = append([]Demand(nil), s.Demands...)
	return &c
}
