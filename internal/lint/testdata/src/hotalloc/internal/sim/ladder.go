package sim

// ladder.go mirrors the second calendar implementation: the rung bucket
// table is a live-set-bounded allocation the allowlist admits; any other
// escape in the file fails, same as the real ladder queue.

type ladderRung struct{ buckets [][]int }

func (r *ladderRung) initRung(nb int) {
	r.buckets = make([][]int, nb) // allowlisted escape: silent
}

type spill struct{ t float64 }

func newSpill() *spill {
	return &spill{} // want `new heap escape on the allocation-free hot path: ladder.go: &spill\{\} escapes to heap`
}
