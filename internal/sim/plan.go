package sim

// Runtime control: once per control epoch the engine assembles a
// PlanObservation — every station's epoch observation plus the windowed
// per-class arrival-rate estimates — hands it to the one controller
// (Options.Controller or Options.PlanController), and applies the returned
// PlanDecision under one set of clamps.
//
// Determinism: the control event consumes no RNG draws, and a decision that
// holds every knob leaves the event stream untouched, so a no-op plan
// controller produces bit-identical results to a controller-free run (pinned
// by the perturbation-freedom tests in internal/control). Each observation
// reads only its own station, and reading the window rates only expires
// buckets an arrival would expire anyway, so neither perturbs the run.

// handleControl runs one control epoch and schedules the next.
func (s *simulator) handleControl() {
	now := s.cal.now
	obs := &s.planObs
	obs.Time = now
	for i, st := range s.stations {
		obs.Stations[i] = s.observeStation(st, now)
	}
	// λ̂ from the window sensors (NaN where there is no estimate).
	s.obs.rates(now, obs.Rates)
	s.applyPlan(now, s.controller.DecidePlan(*obs))
	s.cal.schedule(now+s.controlPeriod, evControl, 0, nil, 0, nil)
}

// observeStation builds one station's per-epoch controller observation. The
// controller sees load against the capacity actually on the floor: failed
// servers do not serve, so dividing by the configured count would understate
// utilization exactly when breakdowns make the control decision matter (see
// upUtilization).
func (s *simulator) observeStation(st *simStation, now float64) Observation {
	return Observation{
		Time:        now,
		Station:     st.idx,
		Utilization: st.upUtilization(st.epochBusy.MeanAt(now)),
		QueueLen:    st.queueLen(),
		Speed:       st.speed,
		Servers:     st.servers,
		MinSpeed:    st.minSpeed,
		MaxSpeed:    st.maxSpeed,
	}
}

// applyPlan applies a plan decision: per-tier speed retunes (clamped, with
// non-finite and non-positive entries holding the current speed) and
// effective-server-count changes via parking. It always restarts the epoch
// utilization measurement, decision or not, so the next observation covers
// exactly one epoch.
func (s *simulator) applyPlan(now float64, d PlanDecision) {
	for j, st := range s.stations {
		if j < len(d.Speeds) {
			sp := d.Speeds[j]
			// NaN or non-positive means "hold" by contract, and NaN fails
			// sp > 0. A NaN that slipped through would pass both clamp
			// comparisons (NaN<min and NaN>max are both false) and poison
			// every departure time at the station, ending the run silently
			// early: a NaN event time fails the `t <= horizon` pending check.
			if sp > 0 {
				if sp < st.minSpeed {
					sp = st.minSpeed
				}
				if sp > st.maxSpeed {
					sp = st.maxSpeed
				}
				s.setSpeed(st, now, sp)
			}
		}
		if j < len(d.Servers) && !st.sleepEnabled {
			if want := d.Servers[j]; want > 0 {
				if want > st.servers {
					want = st.servers // cannot buy hardware mid-run
				}
				s.setParked(st, now, st.servers-want)
			}
		}
		st.epochBusy.StartAt(now, float64(len(st.running)))
	}
}

// setParked moves a station to the given parked-server count. Growing the
// active pool puts freed servers straight to work on the waiting line (like
// a repair); shrinking is lazy — running services finish first (departures
// stop backfilling while the pool is over-subscribed, see handleDeparture).
func (s *simulator) setParked(st *simStation, now float64, parked int) {
	if parked == st.parked {
		return
	}
	st.parked = parked
	s.emit(lcPark, now, -1, 0, st.idx, float64(parked))
	st.observeBusy(now) // the power level steps with the idle pool
	for st.freeServers() > 0 {
		next := st.nextWaiting()
		if next == nil {
			break
		}
		s.startService(st, next, now)
	}
}
