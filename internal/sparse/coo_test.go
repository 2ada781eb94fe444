package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCOOBasics(t *testing.T) {
	m := NewCOO(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	m.Add(0, 1, 2.5)
	m.Add(2, 3, -1)
	m.Add(0, 1, 0.5) // duplicate, should sum on conversion
	m.Add(1, 2, 0)   // exact zero is dropped
	if len(m.entries) != 3 {
		t.Fatalf("stored entries = %d, want 3 (zero entry dropped)", len(m.entries))
	}
	csr := m.ToCSR()
	if got := csr.At(0, 1); got != 3.0 {
		t.Errorf("csr.At(0,1) = %v, want 3.0 (duplicates summed)", got)
	}
	if got := csr.At(2, 3); got != -1.0 {
		t.Errorf("csr.At(2,3) = %v, want -1.0", got)
	}
	if got := csr.At(1, 1); got != 0 {
		t.Errorf("csr.At(1,1) = %v, want 0", got)
	}
	if csr.NNZ() != 2 {
		t.Errorf("csr.NNZ = %d, want 2", csr.NNZ())
	}
}

func TestCOOCancellationDropped(t *testing.T) {
	m := NewCOO(2, 2)
	m.Add(0, 0, 1.5)
	m.Add(0, 0, -1.5)
	m.Add(1, 1, 2)
	csr := m.ToCSR()
	if csr.NNZ() != 1 {
		t.Fatalf("NNZ after cancellation = %d, want 1", csr.NNZ())
	}
	if csr.At(0, 0) != 0 {
		t.Errorf("cancelled entry = %v, want 0", csr.At(0, 0))
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	m := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	m.Add(2, 0, 1)
}

func TestNewCOONegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCOO(-1, 2) did not panic")
		}
	}()
	NewCOO(-1, 2)
}

// randomCOO builds a random matrix along with a dense shadow copy.
func randomCOO(rng *rand.Rand, rows, cols, nnz int) (*COO, *Dense) {
	m := NewCOO(rows, cols)
	d := NewDense(rows, cols)
	for k := 0; k < nnz; k++ {
		r, c := rng.Intn(rows), rng.Intn(cols)
		v := rng.NormFloat64()
		m.Add(r, c, v)
		d.Set(r, c, d.At(r, c)+v)
	}
	return m, d
}

// Property: COO -> CSR -> Dense round-trips to the same matrix as direct
// dense accumulation.
func TestCSRMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m, want := randomCOO(rng, rows, cols, rng.Intn(60))
		got := m.ToCSR().ToDense()
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if math.Abs(got.At(r, c)-want.At(r, c)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR.VecMul agrees with the dense reference.
func TestCSRMulVecMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m, d := randomCOO(rng, rows, cols, rng.Intn(50))
		csr := m.ToCSR()

		y := make([]float64, rows)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		got2, want2 := make([]float64, cols), make([]float64, cols)
		csr.VecMul(got2, y)
		d.VecMul(want2, y)
		for i := range got2 {
			if math.Abs(got2[i]-want2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the transpose satisfies the adjoint identity (x·A)·y == x·(A·y),
// with A·y computed as y·Aᵀ.
func TestCSRTransposeAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m, _ := randomCOO(rng, rows, cols, rng.Intn(40))
		a := m.ToCSR()
		at := a.Transpose()
		if at.Rows() != cols || at.Cols() != rows {
			return false
		}
		x := make([]float64, rows)
		y := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		xa := make([]float64, cols)
		a.VecMul(xa, x)
		ay := make([]float64, rows)
		at.VecMul(ay, y)
		dot := func(u, v []float64) float64 {
			sum := 0.0
			for i := range u {
				sum += u[i] * v[i]
			}
			return sum
		}
		return math.Abs(dot(xa, y)-dot(x, ay)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRowIteration(t *testing.T) {
	m := NewCOO(2, 3)
	m.Add(1, 2, 3)
	m.Add(1, 0, 1)
	csr := m.ToCSR()
	var cols []int
	var vals []float64
	csr.Row(1, func(c int, v float64) {
		cols = append(cols, c)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Errorf("Row(1) visited cols=%v vals=%v, want cols=[0 2] vals=[1 3]", cols, vals)
	}
	count := 0
	csr.Row(0, func(int, float64) { count++ })
	if count != 0 {
		t.Errorf("Row(0) visited %d entries, want 0", count)
	}
}
