package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Property: aᵀb and abᵀ agree with explicit transposition through MatMul.
func TestTransposedProductsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := Randn(m, n, 1, rng)
		b := Randn(m, k, 1, rng)
		atb := MatMulATB(a, b) // n×k
		at := New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want := MatMul(at, b)
		for i := range atb.Data {
			if math.Abs(atb.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		c := Randn(k, n, 1, rng)
		abt := MatMulABT(a, c) // m×k
		ct := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				ct.Set(j, i, c.At(i, j))
			}
		}
		want2 := MatMul(a, ct)
		for i := range abt.Data {
			if math.Abs(abt.Data[i]-want2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVecAndColSums(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.AddRowVec(FromSlice(1, 2, []float64{10, 20}))
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVec = %v", m.Data)
	}
	cs := m.ColSums()
	if cs.At(0, 0) != 11+13 || cs.At(0, 1) != 22+24 {
		t.Fatalf("ColSums = %v", cs.Data)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing data")
	}
}

func TestZero(t *testing.T) {
	m := FromSlice(1, 3, []float64{3, 4, 0})
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero left %v", m.Data)
		}
	}
}
