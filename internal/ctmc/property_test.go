package ctmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"guardedop/internal/sparse"
)

// randomGenerator builds a random irreducible-ish generator on n states with
// rates spanning several orders of magnitude.
func randomGenerator(rng *rand.Rand, n int, maxRate float64) *sparse.COO {
	g := sparse.NewCOO(n, n)
	for r := 0; r < n; r++ {
		exit := 0.0
		for c := 0; c < n; c++ {
			if c == r {
				continue
			}
			if rng.Float64() < 0.6 {
				rate := maxRate * math.Pow(10, -3*rng.Float64()) * rng.Float64()
				g.Add(r, c, rate)
				exit += rate
			}
		}
		// Guarantee at least one exit so the chain stays ergodic.
		if exit == 0 {
			c := (r + 1) % n
			rate := maxRate * rng.Float64()
			if rate == 0 {
				rate = maxRate / 2
			}
			g.Add(r, c, rate)
			exit += rate
		}
		g.Add(r, r, -exit)
	}
	return g
}

func randomDistribution(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() + 1e-3
	}
	sparse.Normalize(v)
	return v
}

// Property: uniformization output is a probability vector for random chains,
// random initial distributions, and random horizons.
func TestUniformizationIsStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c, err := New(randomGenerator(rng, n, 10))
		if err != nil {
			return false
		}
		pi0 := randomDistribution(rng, n)
		tt := rng.Float64() * 20
		pi, err := c.TransientUniformization(pi0, tt)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: expm and uniformization agree on non-stiff random chains.
func TestExpmMatchesUniformizationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		c, err := New(randomGenerator(rng, n, 5))
		if err != nil {
			return false
		}
		pi0 := randomDistribution(rng, n)
		tt := rng.Float64() * 10
		a, err := c.TransientUniformization(pi0, tt)
		if err != nil {
			return false
		}
		b, err := c.TransientExpm(pi0, tt)
		if err != nil {
			return false
		}
		return sparse.L1Dist(a, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: accumulated solvers agree and conserve total time.
func TestAccumulatedAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		c, err := New(randomGenerator(rng, n, 4))
		if err != nil {
			return false
		}
		pi0 := randomDistribution(rng, n)
		tt := rng.Float64() * 8
		a, err := c.AccumulatedUniformization(pi0, tt)
		if err != nil {
			return false
		}
		b, err := c.AccumulatedExpm(pi0, tt)
		if err != nil {
			return false
		}
		if sparse.L1Dist(a, b) > 1e-6*(1+tt) {
			return false
		}
		return math.Abs(sparse.Sum(a)-tt) < 1e-8*(1+tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the steady-state vector satisfies πQ ≈ 0 and transient solutions
// converge to it for large t.
func TestSteadyStateResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c, err := New(randomGenerator(rng, n, 3))
		if err != nil {
			return false
		}
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		res := make([]float64, n)
		c.Generator().VecMul(res, pi)
		if sparse.InfNormVec(res) > 1e-8 {
			return false
		}
		// Long-horizon transient should be close to steady state. Mixing is
		// governed by the slowest exit rate, so scale the horizon by it.
		minExit := math.Inf(1)
		for s := 0; s < n; s++ {
			if r := -c.Generator().At(s, s); r < minExit {
				minExit = r
			}
		}
		pi0 := randomDistribution(rng, n)
		long, err := transientAt(c, pi0, 5000/math.Max(minExit, 1e-6))
		if err != nil {
			return false
		}
		return sparse.L1Dist(long, pi) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Poisson windows have non-negative weights summing to one and a
// window containing the mean.
func TestPoissonWindowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mean := math.Pow(10, 6*rng.Float64()-2) // 1e-2 .. 1e4
		win, err := newPoissonWindow(mean, 1e-12)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, w := range win.Weights {
			if w < 0 {
				return false
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			return false
		}
		mode := int(mean)
		return win.Left <= mode && mode <= win.Right
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonWindowMatchesDirectPMF(t *testing.T) {
	// Compare against directly computed pmf for a small mean.
	mean := 3.7
	win, err := newPoissonWindow(mean, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	fact := 1.0
	for k := 0; k <= 20; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		want := math.Exp(-mean) * math.Pow(mean, float64(k)) / fact
		if got := win.PMF(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("PMF(%d) = %.15f, want %.15f", k, got, want)
		}
	}
}

func TestPoissonWindowEdgeCases(t *testing.T) {
	if _, err := newPoissonWindow(-1, 1e-10); err == nil {
		t.Error("accepted negative mean")
	}
	if _, err := newPoissonWindow(1, 0); err == nil {
		t.Error("accepted zero tolerance")
	}
	win, err := newPoissonWindow(0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if win.PMF(0) != 1 || win.PMF(1) != 0 {
		t.Errorf("mean-0 window pmf = (%v,%v), want (1,0)", win.PMF(0), win.PMF(1))
	}
}

// The stiff regime exercised by the paper: fast rates ~1e3, slow ~1e-8,
// horizon 1e4. Verify the auto-selected method matches a semi-analytic
// result on a chain simple enough to solve by hand.
func TestStiffTransientMatchesAnalytic(t *testing.T) {
	// 0 --mu--> 1 --lambda--> 2 (absorbing), mu=1e-4, lambda=1200.
	// P(still in 0 at t) = e^{-mu t};
	// P(absorbed at t) = 1 - (lambda e^{-mu t} - mu e^{-lambda t})/(lambda-mu).
	mu, lambda := 1e-4, 1200.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, mu)
	g.Add(0, 0, -mu)
	g.Add(1, 2, lambda)
	g.Add(1, 1, -lambda)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	tt := 1e4
	got, err := transientAt(c, pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	want0 := math.Exp(-mu * tt)
	want2 := 1 - (lambda*math.Exp(-mu*tt)-mu*math.Exp(-lambda*tt))/(lambda-mu)
	if math.Abs(got[0]-want0) > 1e-9 {
		t.Errorf("stiff P(0) = %.12f, want %.12f", got[0], want0)
	}
	if math.Abs(got[2]-want2) > 1e-9 {
		t.Errorf("stiff P(2) = %.12f, want %.12f", got[2], want2)
	}
}
