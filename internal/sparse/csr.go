package sparse

import (
	"fmt"
)

// CSR is an immutable compressed-sparse-row matrix. Construct one with
// COO.ToCSR. Row r's entries live at positions rowPtr[r]..rowPtr[r+1] of
// colIdx/values, with column indices strictly increasing within a row.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	values     []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored (structurally non-zero) entries.
func (m *CSR) NNZ() int { return len(m.values) }

// At returns the value at (r, c) using a binary search within row r.
// It panics if (r, c) is out of range.
func (m *CSR) At(r, c int) float64 {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("sparse: CSR index (%d,%d) out of range %dx%d", r, c, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.colIdx[mid] < c:
			lo = mid + 1
		case m.colIdx[mid] > c:
			hi = mid
		default:
			return m.values[mid]
		}
	}
	return 0
}

// Row calls fn(col, value) for every stored entry of row r in column order.
func (m *CSR) Row(r int, fn func(c int, v float64)) {
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		fn(m.colIdx[i], m.values[i])
	}
}

// VecMul computes dst = x * m (row vector times matrix) — the orientation
// used for probability-vector propagation, where x is a distribution over
// states and m is a transition matrix.
// dst must have length Cols and x length Rows; dst and x must not alias.
// It panics on a dimension mismatch.
func (m *CSR) VecMul(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("sparse: VecMul dimension mismatch: m is %dx%d, len(x)=%d, len(dst)=%d",
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
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			dst[m.colIdx[i]] += xr * m.values[i]
		}
	}
}

// Transpose returns the transpose of m as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, m.NNZ()),
		values: make([]float64, m.NNZ()),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	next := append([]int(nil), t.rowPtr...)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			t.colIdx[next[c]] = r
			t.values[next[c]] = m.values[i]
			next[c]++
		}
	}
	return t
}

// ToDense expands m into a dense matrix.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			d.Set(r, m.colIdx[i], m.values[i])
		}
	}
	return d
}
