package nn

// The row updates are the one step every dense product takes: add a few
// scaled rows of b into an output row o. Each b holds at least len(o)
// elements. rowUpdate4 sets
//
//	o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// and rowUpdate1 sets o[j] = o[j] + a·b[j]: each element adds its products
// one at a time in the order given, each product rounded before its add.
// The Go forms below are compiled on every arch. Off amd64 they are the
// kernels (rowupdate_other.go); on amd64 the kernels are SSE2 assembly
// (rowupdate_amd64.s) and these are the reference FuzzRowKernels holds it
// to. Every product is written float64(x*y), which forbids the compiler to
// fuse it with the add (arm64 would).

func rowUpdate4Go(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		o[j] = o[j] + float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
	}
}

func rowUpdate1Go(o []float64, a float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += float64(a * b[j])
	}
}
