package nn

// rowUpdate4 and rowUpdate1 are rowupdate_amd64.s: rowUpdate4Go and
// rowUpdate1Go two lanes at a time, in SSE2 alone, so every amd64 runs them
// and none needs a CPU check. TestNNAsmIsBaselineSSE2 holds the file to
// that; FuzzRowKernels holds it to the Go forms bit for bit.

//go:noescape
func rowUpdate4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64)

//go:noescape
func rowUpdate1(o []float64, a float64, b []float64)
