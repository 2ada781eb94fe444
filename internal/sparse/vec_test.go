package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Sum(a); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	dst := []float64{1, 1, 1}
	Axpy(dst, 2, a)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Errorf("Axpy result = %v, want [3 5 7]", dst)
	}
	ScaleVec(dst, 0.5)
	if dst[0] != 1.5 || dst[1] != 2.5 || dst[2] != 3.5 {
		t.Errorf("ScaleVec result = %v, want [1.5 2.5 3.5]", dst)
	}
	if got := InfNormVec(b); got != 6 {
		t.Errorf("InfNormVec = %v, want 6", got)
	}
	if got := L1Dist(a, []float64{0, 0, 0}); got != 6 {
		t.Errorf("L1Dist = %v, want 6", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{1, 3}
	if sum := Normalize(v); sum != 4 {
		t.Errorf("Normalize returned %v, want 4", sum)
	}
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Errorf("normalized = %v, want [0.25 0.75]", v)
	}
	zero := []float64{0, 0}
	if sum := Normalize(zero); sum != 0 {
		t.Errorf("Normalize of zero vector returned %v, want 0", sum)
	}
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero vector modified: %v", zero)
	}
}

func TestInfNormVecEmpty(t *testing.T) {
	if got := InfNormVec(nil); got != 0 {
		t.Errorf("InfNormVec(nil) = %v, want 0", got)
	}
}

// Property: Normalize makes any vector with a positive sum sum to 1.
func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, math.Abs(x))
			}
		}
		if Sum(v) <= 0 || Sum(v) > 1e12 {
			return true // skip degenerate inputs
		}
		Normalize(v)
		return math.Abs(Sum(v)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}
