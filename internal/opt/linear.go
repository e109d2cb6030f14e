package opt

import (
	"fmt"
	"math"
)

// SolveDense solves a·x = b in place by Gaussian elimination with partial
// pivoting: a is overwritten, and b holds x on return. It fails when a pivot
// is smaller than tiny in magnitude; the solution may still be non-finite
// when tiny does not guard against a near-singular a.
func SolveDense(a [][]float64, b []float64, tiny float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in the column at or below the diagonal.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < tiny {
			return fmt.Errorf("singular at column %d", col)
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution; b[cc] already holds x[cc] for cc > r.
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for cc := r + 1; cc < n; cc++ {
			s -= a[r][cc] * b[cc]
		}
		b[r] = s / a[r][r]
	}
	return nil
}
