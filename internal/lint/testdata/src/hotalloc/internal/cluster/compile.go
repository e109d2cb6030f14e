package cluster

// compile.go is the cold half of the model: its escapes in the canned
// compiler transcript are off the gated path and must be ignored.

func Compile(k int) *Model {
	md := &Model{n: k}
	_ = make([]float64, k) // escapes, but off the hot path: silent
	return md
}
