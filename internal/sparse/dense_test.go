package sparse

import (
	"math"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 4)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 4 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Error("Set/At broken")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Error("dims broken")
	}
	row := m.RowSlice(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("RowSlice does not write through")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 0 {
		t.Error("Clone aliases")
	}
}

func TestIdentity(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("I[%d][%d] = %v", r, c, i3.At(r, c))
			}
		}
	}
}

func TestDenseMulKnown(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := a.Mul(a)
	want := [][]float64{{7, 10}, {15, 22}}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if b.At(r, c) != want[r][c] {
				t.Errorf("A²[%d][%d] = %v, want %v", r, c, b.At(r, c), want[r][c])
			}
		}
	}
}

func TestDenseAddScaleInfNorm(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -3)
	b := a.Add(a.Scale(2))
	if b.At(0, 0) != 3 || b.At(1, 1) != -9 {
		t.Errorf("Add/Scale broken: %v %v", b.At(0, 0), b.At(1, 1))
	}
	if got := b.InfNorm(); got != 9 {
		t.Errorf("InfNorm = %v, want 9", got)
	}
}

func TestDenseVecOps(t *testing.T) {
	a := NewDense(2, 3)
	a.Set(0, 0, 1)
	a.Set(0, 2, 2)
	a.Set(1, 1, 3)
	y := []float64{1, 2}
	dst2 := make([]float64, 3)
	a.VecMul(dst2, y)
	if dst2[0] != 1 || dst2[1] != 6 || dst2[2] != 2 {
		t.Errorf("VecMul = %v, want [1 6 2]", dst2)
	}
}

func TestDenseDimensionPanics(t *testing.T) {
	a := NewDense(2, 2)
	cases := []func(){
		func() { a.Mul(NewDense(3, 2)) },
		func() { a.VecMul(make([]float64, 3), make([]float64, 2)) },
		func() { a.Add(NewDense(3, 3)) },
		func() { NewDense(-1, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCSRToDenseRoundTripValues(t *testing.T) {
	m := NewCOO(3, 3)
	m.Add(2, 0, -1.5)
	m.Add(0, 2, 2.5)
	d := m.ToCSR().ToDense()
	if d.At(2, 0) != -1.5 || d.At(0, 2) != 2.5 {
		t.Error("CSR->Dense values wrong")
	}
}

func TestCSRAtOutOfRangePanics(t *testing.T) {
	m := NewCOO(2, 2).ToCSR()
	defer func() {
		if recover() == nil {
			t.Fatal("CSR.At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestLUNonFiniteSafety(t *testing.T) {
	// A matrix with huge magnitude spread still solves to finite values.
	a := NewDense(2, 2)
	a.Set(0, 0, 1e12)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3e-12)
	x, err := SolveDense(a, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("non-finite solution %v", x)
		}
	}
}
