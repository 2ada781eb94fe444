package sparse

import (
	"math/rand"
	"testing"
)

func benchMatrix(b *testing.B, n, nnzPerRow int) (*CSR, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	coo := NewCOO(n, n)
	for r := 0; r < n; r++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(r, rng.Intn(n), rng.NormFloat64())
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return coo.ToCSR(), x
}

func BenchmarkCSRVecMul(b *testing.B) {
	m, x := benchMatrix(b, 1024, 8)
	dst := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VecMul(dst, x)
	}
}

func BenchmarkCOOToCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coo := NewCOO(512, 512)
	for k := 0; k < 512*8; k++ {
		coo.Add(rng.Intn(512), rng.Intn(512), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coo.ToCSR()
	}
}

func BenchmarkDenseMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	m := NewDense(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			m.Set(r, c, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mul(m)
	}
}

func BenchmarkLUSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	a := NewDense(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			a.Set(r, c, rng.NormFloat64())
		}
		a.Set(r, r, a.At(r, r)+float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDense(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
