package ctmc

import (
	"math/rand"
	"testing"

	"guardedop/internal/sparse"
)

func benchChain(b *testing.B, n int, maxRate float64) *Chain {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c, err := New(randomGenerator(rng, n, maxRate))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkTransientUniformization(b *testing.B) {
	c := benchChain(b, 50, 100)
	pi0, _ := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransientUniformization(pi0, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientExpmStiff(b *testing.B) {
	// The paper's stiff regime: fast message rates against slow fault
	// rates over a long horizon.
	g := sparse.NewCOO(24, 24)
	for i := 0; i < 23; i++ {
		rate := 1e-4
		if i%3 == 0 {
			rate = 1200
		}
		g.Add(i, i+1, rate)
		g.Add(i, i, -rate)
	}
	c, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransientExpm(pi0, 1e4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulatedExpm(b *testing.B) {
	c := benchChain(b, 24, 1000)
	pi0, _ := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AccumulatedExpm(pi0, 1e4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateDirect(b *testing.B) {
	c := benchChain(b, 64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.steadyDirect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateSOR(b *testing.B) {
	c := benchChain(b, 64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.steadySOR(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoissonWindowLargeMean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newPoissonWindow(1e5, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}
