package sim

import (
	"fmt"
	"math"
)

// Observation is what a runtime controller sees about one station at a
// control epoch.
type Observation struct {
	Time        float64
	Station     int
	Utilization float64 // mean busy fraction per server since the last epoch
	QueueLen    int     // jobs waiting (not in service) right now
	Speed       float64 // current speed
	Servers     int
	MinSpeed    float64 // clamp range the decision will be held to
	MaxSpeed    float64
}

// Controller is a PlanController that keeps no state between epochs, so
// one value can be shared by concurrent replications (Options.Controller).
// The unexported method closes the set to the simulator's own stateless
// policies: a stateful controller such as internal/control's autoscaler
// cannot be assigned here and goes on Options.PlanController instead.
type Controller interface {
	PlanController
	stateless()
}

// ZeroQueueGain requests a UtilizationPolicy with NO queue-pressure boost.
// It exists for the same reason as ZeroWarmup: the zero value of QueueGain
// must keep meaning "use the default", so an explicit zero is spelled with a
// negative sentinel instead (any negative value disables the boost).
const ZeroQueueGain = -1.0

// UtilizationPolicy is the classic reactive DVFS rule: scale the speed so
// the observed utilization moves toward Target, with first-order smoothing
// (Gain) and a queue-pressure boost that accelerates recovery when work has
// already piled up (utilization alone saturates at 1 and cannot see backlog).
type UtilizationPolicy struct {
	// Target is the desired per-server utilization (default 0.7; a value
	// outside (0, 1), or NaN, selects the default).
	Target float64
	// Gain in (0, 1] is the fraction of the correction applied per epoch
	// (default 0.5; 1 = jump straight to the estimate; a value outside
	// (0, 1], or NaN, selects the default).
	Gain float64
	// QueueGain scales the backlog boost (default 0.1 per queued job per
	// server). Leaving it at zero, NaN or +Inf selects the default; to
	// disable the boost entirely, set QueueGain to ZeroQueueGain (any
	// negative value works).
	QueueGain float64
}

// Name implements PlanController.
func (p UtilizationPolicy) Name() string {
	return fmt.Sprintf("reactive(ρ*=%.2g)", p.target())
}

// The parameter accessors phrase each valid range positively, so a NaN
// field falls through to the default like the unset zero value does.

func (p UtilizationPolicy) target() float64 {
	if p.Target > 0 && p.Target < 1 {
		return p.Target
	}
	return 0.7
}

func (p UtilizationPolicy) gain() float64 {
	if p.Gain > 0 && p.Gain <= 1 {
		return p.Gain
	}
	return 0.5
}

func (p UtilizationPolicy) queueGain() float64 {
	switch {
	case p.QueueGain < 0:
		// ZeroQueueGain (or any negative value): boost explicitly disabled.
		return 0
	case p.QueueGain > 0 && !math.IsInf(p.QueueGain, 1):
		return p.QueueGain
	}
	// Unset (zero — an explicit zero is ZeroQueueGain), NaN or +Inf.
	return 0.1
}

// PlanObservation is what a plan-level controller sees at a control epoch:
// every station's per-epoch observation plus the windowed per-class arrival-
// rate estimates. It is the cluster-wide counterpart of Observation — one
// decision over the whole plan instead of one per station.
type PlanObservation struct {
	// Time is the epoch's simulated time.
	Time float64
	// Stations holds one Observation per tier, in tier order.
	Stations []Observation
	// Rates[k] is class k's windowed arrival-rate estimate λ̂ read from the
	// attached window.Set at this epoch, or NaN when no window set is
	// attached (or the window has no coverage yet). Controllers must treat
	// NaN as "no estimate" and fall back to their nominal rates.
	Rates []float64
}

// PlanDecision is a plan-level controller's retune order. Zero values hold
// the current plan: a nil or short slice, a NaN or non-positive speed, and a
// non-positive server count all mean "leave that knob alone", so the zero
// PlanDecision is a guaranteed no-op (the perturbation-freedom tests pin
// that a controller returning it never changes any result bit).
type PlanDecision struct {
	// Speeds[j], when positive and finite, is tier j's new speed (clamped
	// to the tier's [MinSpeed, MaxSpeed] by the simulator).
	Speeds []float64
	// Servers[j], when positive, is tier j's new effective server count:
	// the simulator parks servers - Servers[j] of the configured servers
	// (clamped to at least 1 active). Parked servers draw no power and
	// accept no work; shrinking is lazy — running services finish before
	// the pool contracts. Ignored on tiers with the sleep policy enabled
	// (sleep already manages the idle pool) and values above the configured
	// count are capped (the simulator cannot buy hardware mid-run).
	Servers []int
}

// PlanController re-plans the whole cluster at every control epoch. It is
// the simulator's one decision hook: the reactive UtilizationPolicy applies
// its per-station rule to every tier through it, and internal/control's
// model-driven autoscaler re-runs the paper's optimizations against live
// estimates through it.
type PlanController interface {
	// Name labels the policy in experiment tables.
	Name() string
	// DecidePlan returns the retune order to apply until the next epoch.
	DecidePlan(obs PlanObservation) PlanDecision
}

func (UtilizationPolicy) stateless() {}

// DecidePlan implements PlanController by applying the per-station rule
// (nextSpeed) to every tier; it never parks servers.
func (p UtilizationPolicy) DecidePlan(obs PlanObservation) PlanDecision {
	speeds := make([]float64, len(obs.Stations))
	for j, o := range obs.Stations {
		speeds[j] = p.nextSpeed(o)
	}
	return PlanDecision{Speeds: speeds}
}

// nextSpeed is the per-station rule. The served work rate since the last
// epoch is util·speed·servers; the speed that would serve the same work at
// the target utilization is util·speed/target. Backlog multiplies the
// estimate so the queue drains instead of merely not growing.
func (p UtilizationPolicy) nextSpeed(obs Observation) float64 {
	desired := obs.Speed * obs.Utilization / p.target()
	if obs.QueueLen > obs.Servers {
		desired *= 1 + p.queueGain()*float64(obs.QueueLen)/float64(obs.Servers)
	}
	next := obs.Speed + p.gain()*(desired-obs.Speed)
	if next < obs.MinSpeed {
		next = obs.MinSpeed
	}
	if next > obs.MaxSpeed {
		next = obs.MaxSpeed
	}
	return next
}
