package sim // want `stale hotalloc allowlist entry "engine.go: &ghost\{\} escapes to heap"`

type calendar struct{ events []int }

func newCalendar() *calendar {
	return &calendar{} // allowlisted escape: silent
}

type tracker struct{ n int }

func leak() *tracker {
	return &tracker{} // want `new heap escape on the allocation-free hot path: engine.go: &tracker\{\} escapes to heap`
}
