package cluster

// model.go mirrors the analytic model's evaluation path, whose allowlist
// section is empty: any escape in the file fails.

type Model struct{ n int }

type Metrics struct{ v []float64 }

func (md *Model) EvaluateAt(speeds []float64, m *Metrics) error {
	for i, s := range speeds {
		m.v[i] = any(s).(float64) // want `new heap escape on the allocation-free hot path: model.go: s escapes to heap`
	}
	return nil
}
