package sparse

import "math"

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum
}

// Axpy computes dst[i] += alpha * x[i] for all i. It panics on a length
// mismatch.
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic("sparse: Axpy length mismatch")
	}
	axpy(dst, alpha, x)
}

// axpy is the shared dst[i] += alpha*x[i] kernel behind Axpy, Dense.Mul
// and Dense.VecMul. The 4-way unroll keeps the updates elementwise —
// bit-identical to the scalar loop — while cutting loop overhead and
// exposing four independent add chains; it is the hottest loop of the
// dense expm path. Callers guarantee len(dst) >= len(x).
func axpy(dst []float64, alpha float64, x []float64) {
	dst = dst[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		dst[i] += alpha * x0
		dst[i+1] += alpha * x1
		dst[i+2] += alpha * x2
		dst[i+3] += alpha * x3
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// ScaleVec multiplies every element of v by s in place.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// InfNormVec returns max_i |v[i]|, or 0 for an empty slice.
func InfNormVec(v []float64) float64 {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs
}

// L1Dist returns the L1 distance between a and b. It panics on a length
// mismatch.
func L1Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: L1Dist length mismatch")
	}
	sum := 0.0
	for i, v := range a {
		sum += math.Abs(v - b[i])
	}
	return sum
}

// Normalize scales v in place so its elements sum to 1 and returns the
// original sum. If the sum is zero the vector is left unchanged.
func Normalize(v []float64) float64 {
	sum := Sum(v)
	if sum != 0 {
		ScaleVec(v, 1/sum)
	}
	return sum
}
