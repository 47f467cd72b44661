// Package tensor provides the minimal dense linear algebra the ML baselines
// need: row-major float64 matrices with the usual operations. It exists so
// the Sinan (CNN + boosted trees) and Firm (RL) reimplementations are
// self-contained, matching the repository's no-external-dependencies rule.
package tensor

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows×cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic("tensor: data length does not match shape")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Randn fills a new matrix with N(0, std) entries.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At reads element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set writes element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			bo := k * b.Cols
			oo := i * out.Cols
			for j := 0; j < b.Cols; j++ {
				out.Data[oo+j] += av * b.Data[bo+j]
			}
		}
	}
	return out
}

// MatMulATB returns aᵀ×b (used for weight gradients).
func MatMulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("tensor: matmulATB shape mismatch")
	}
	out := New(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		ao := r * a.Cols
		bo := r * b.Cols
		for i := 0; i < a.Cols; i++ {
			av := a.Data[ao+i]
			if av == 0 {
				continue
			}
			oo := i * out.Cols
			for j := 0; j < b.Cols; j++ {
				out.Data[oo+j] += av * b.Data[bo+j]
			}
		}
	}
	return out
}

// MatMulABT returns a×bᵀ (used for input gradients).
func MatMulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("tensor: matmulABT shape mismatch")
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ao := i * a.Cols
		for j := 0; j < b.Rows; j++ {
			bo := j * b.Cols
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.Data[ao+k] * b.Data[bo+k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// AddRowVec adds a 1×n row vector to every row in place.
func (m *Matrix) AddRowVec(v *Matrix) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic("tensor: AddRowVec shape mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		o := r * m.Cols
		for c := 0; c < m.Cols; c++ {
			m.Data[o+c] += v.Data[c]
		}
	}
}

// Add adds b element-wise in place.
func (m *Matrix) Add(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// ColSums returns a 1×cols matrix of column sums.
func (m *Matrix) ColSums() *Matrix {
	out := New(1, m.Cols)
	for r := 0; r < m.Rows; r++ {
		o := r * m.Cols
		for c := 0; c < m.Cols; c++ {
			out.Data[c] += m.Data[o+c]
		}
	}
	return out
}
