//go:build !amd64

package nn

// Off amd64 the Go row updates are the kernels.

func rowUpdate4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	rowUpdate4Go(o, a0, a1, a2, a3, b0, b1, b2, b3)
}

func rowUpdate1(o []float64, a float64, b []float64) { rowUpdate1Go(o, a, b) }
