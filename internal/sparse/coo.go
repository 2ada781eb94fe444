package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format sparse matrix builder. Entries may be added in
// any order; duplicate (row, col) entries are summed when the matrix is
// converted to CSR. The zero value is an empty 0x0 matrix; use NewCOO to set
// dimensions.
type COO struct {
	rows, cols int
	entries    []cooEntry
}

type cooEntry struct {
	row, col int
	val      float64
}

// NewCOO returns an empty rows x cols coordinate-format builder.
// It panics if either dimension is negative.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid COO dimensions %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Rows returns the number of rows.
func (m *COO) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *COO) Cols() int { return m.cols }

// Add accumulates v at position (r, c). Adding an exact zero is a no-op so
// that generator assembly loops need not special-case zero rates. It panics
// if (r, c) is out of range.
func (m *COO) Add(r, c int, v float64) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("sparse: COO index (%d,%d) out of range %dx%d", r, c, m.rows, m.cols))
	}
	if v == 0 {
		return
	}
	m.entries = append(m.entries, cooEntry{row: r, col: c, val: v})
}

// ToCSR converts the builder to compressed sparse row form, summing
// duplicate entries and dropping entries that cancel to exactly zero.
func (m *COO) ToCSR() *CSR {
	entries := make([]cooEntry, len(m.entries))
	copy(entries, m.entries)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].row != entries[j].row {
			return entries[i].row < entries[j].row
		}
		return entries[i].col < entries[j].col
	})

	// Coalesce duplicates in place.
	out := entries[:0]
	for _, e := range entries {
		if n := len(out); n > 0 && out[n-1].row == e.row && out[n-1].col == e.col {
			out[n-1].val += e.val
			continue
		}
		out = append(out, e)
	}
	// Drop exact zeros produced by cancellation.
	kept := out[:0]
	for _, e := range out {
		if e.val != 0 {
			kept = append(kept, e)
		}
	}

	csr := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: make([]int, m.rows+1),
		colIdx: make([]int, len(kept)),
		values: make([]float64, len(kept)),
	}
	for i, e := range kept {
		csr.rowPtr[e.row+1]++
		csr.colIdx[i] = e.col
		csr.values[i] = e.val
	}
	for r := 0; r < m.rows; r++ {
		csr.rowPtr[r+1] += csr.rowPtr[r]
	}
	return csr
}
