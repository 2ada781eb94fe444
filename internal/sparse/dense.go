package sparse

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows x cols dense matrix. It panics if either
// dimension is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid Dense dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the value at (r, c).
func (m *Dense) At(r, c int) float64 { return m.data[r*m.cols+c] }

// Set stores v at (r, c).
func (m *Dense) Set(r, c int, v float64) { m.data[r*m.cols+c] = v }

// RowSlice returns the backing slice for row r. Mutations write through.
func (m *Dense) RowSlice(r int) []float64 { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Mul returns the matrix product m * other. It panics on a dimension
// mismatch.
func (m *Dense) Mul(other *Dense) *Dense {
	if m.cols != other.rows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewDense(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*other.cols : (i+1)*other.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			axpy(oi, mik, other.data[k*other.cols:(k+1)*other.cols])
		}
	}
	return out
}

// VecMul computes dst = x * m (row vector times matrix). No aliasing.
// It panics on a dimension mismatch.
func (m *Dense) VecMul(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("sparse: Dense.VecMul dimension mismatch: m is %dx%d, len(x)=%d, len(dst)=%d",
			m.rows, m.cols, len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		axpy(dst, xr, m.RowSlice(r))
	}
}

// Add returns m + other. It panics on a dimension mismatch.
func (m *Dense) Add(other *Dense) *Dense {
	if m.rows != other.rows || m.cols != other.cols {
		panic("sparse: Add dimension mismatch")
	}
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] += v
	}
	return out
}

// Scale returns s * m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// InfNorm returns the infinity norm (max absolute row sum).
func (m *Dense) InfNorm() float64 {
	maxSum := 0.0
	for r := 0; r < m.rows; r++ {
		sum := 0.0
		for _, v := range m.RowSlice(r) {
			sum += math.Abs(v)
		}
		if sum > maxSum {
			maxSum = sum
		}
	}
	return maxSum
}
