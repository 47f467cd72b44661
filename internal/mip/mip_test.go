package mip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ursa/internal/lp"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6, binary → a=0? enumerate:
	// (1,0,1): w=5 v=17; (0,1,1): w=6 v=20; (1,1,0): w=7 infeasible → 20.
	r := Solve(Problem{
		C:       []float64{-10, -13, -7},
		A:       [][]float64{{3, 4, 2}},
		B:       []float64{6},
		Integer: []bool{true, true, true},
	})
	if r.Status != lp.Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if !near(r.Obj, -20) || r.X[0] != 0 || r.X[1] != 1 || r.X[2] != 1 {
		t.Fatalf("x=%v obj=%v", r.X, r.Obj)
	}
}

func TestIntegralityMatters(t *testing.T) {
	// LP relaxation of max x1+x2 s.t. 2x1+2x2 ≤ 3 gives 1.5; binary gives 1.
	r := Solve(Problem{
		C:       []float64{-1, -1},
		A:       [][]float64{{2, 2}},
		B:       []float64{3},
		Integer: []bool{true, true},
	})
	if !near(r.Obj, -1) {
		t.Fatalf("obj = %v, want -1", r.Obj)
	}
}

func TestOneHotSelection(t *testing.T) {
	// Pick exactly one of three options (x1+x2+x3 = 1) minimizing cost with
	// a requirement row: value ≥ 5 where values are (3, 5, 9), costs (1,2,4).
	r := Solve(Problem{
		C: []float64{1, 2, 4},
		A: [][]float64{
			{1, 1, 1}, {-1, -1, -1}, // equality
			{-3, -5, -9}, // value ≥ 5
		},
		B:       []float64{1, -1, -5},
		Integer: []bool{true, true, true},
	})
	if r.Status != lp.Optimal || !near(r.Obj, 2) || r.X[1] != 1 {
		t.Fatalf("r = %+v", r)
	}
}

// TestMIP1Instance solves a tiny instance of the paper's MIP (1), built by
// hand: two services × two LPR points × two percentiles, one class, with
// one-hot δ (points) and γ (percentiles) and the δ·γ products linearised
// through z ≥ δ + γ − 1. Variables: δ_a0 δ_a1 δ_b0 δ_b1 γ_a0 γ_a1 γ_b0 γ_b1
// then 8 z's. δ picks the cheap points (cost 2+3) whose best percentile
// latencies 10+15 fit the 40ms target.
func TestMIP1Instance(t *testing.T) {
	nVar := 8 + 8
	c := make([]float64, nVar)
	copy(c, []float64{2, 4, 3, 6}) // δ costs
	var A [][]float64
	var B []float64
	row := func() []float64 { return make([]float64, nVar) }
	// One-hot constraints (= 1 as two inequalities).
	for _, oh := range [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		r1, r2 := row(), row()
		for _, j := range oh {
			r1[j] = 1
			r2[j] = -1
		}
		A = append(A, r1, r2)
		B = append(B, 1, -1)
	}
	// z_ij ≥ δ_i + γ_j − 1 → δ + γ − z ≤ 1, for the 8 (δ, γ) pairs within
	// each service.
	pairs := [][2]int{{0, 4}, {0, 5}, {1, 4}, {1, 5}, {2, 6}, {2, 7}, {3, 6}, {3, 7}}
	lat := []float64{10, 14, 30, 42, 15, 21, 45, 63}
	latRow := row()
	for zi, p := range pairs {
		r := row()
		r[p[0]] = 1
		r[p[1]] = 1
		r[8+zi] = -1
		A = append(A, r)
		B = append(B, 1)
		latRow[8+zi] = lat[zi]
	}
	// Latency constraint Σ z·D ≤ 40 (forces the fast points).
	A = append(A, latRow)
	B = append(B, 40)
	integer := make([]bool, nVar)
	for j := 0; j < 8; j++ {
		integer[j] = true
	}
	r := Solve(Problem{C: c, A: A, B: B, Integer: integer})
	if r.Status != lp.Optimal || !near(r.Obj, 5) {
		t.Fatalf("r = %+v, want objective 5", r)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// x1 + x2 ≥ 3 with two binaries.
	r := Solve(Problem{
		C:       []float64{1, 1},
		A:       [][]float64{{-1, -1}},
		B:       []float64{-3},
		Integer: []bool{true, true},
	})
	if r.Status != lp.Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 3y + x s.t. x ≥ 2.5 − 2y, x continuous ≥ 0, y binary.
	// y=1 → x ≥ 0.5 → obj 3.5; y=0 → x ≥ 2.5 → obj 2.5. Optimal y=0.
	r := Solve(Problem{
		C:       []float64{1, 3},
		A:       [][]float64{{-1, -2}},
		B:       []float64{-2.5},
		Integer: []bool{false, true},
	})
	if r.Status != lp.Optimal || !near(r.Obj, 2.5) || r.X[1] != 0 {
		t.Fatalf("r = %+v", r)
	}
}

// bruteForce enumerates all binary assignments (pure-binary problems only).
func bruteForce(p Problem) (float64, bool) {
	n := len(p.C)
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		feasible := true
		for i := range p.A {
			lhs := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					lhs += p.A[i][j]
				}
			}
			if lhs > p.B[i]+1e-9 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		obj := 0.0
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				obj += p.C[j]
			}
		}
		if obj < best {
			best = obj
			found = true
		}
	}
	return best, found
}

// Property: on random pure-binary problems, B&B matches brute force.
func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		p := Problem{
			C:       make([]float64, n),
			A:       make([][]float64, m),
			B:       make([]float64, m),
			Integer: make([]bool, n),
		}
		for j := 0; j < n; j++ {
			p.C[j] = math.Round(rng.Float64()*20-10) / 2
			p.Integer[j] = true
		}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				p.A[i][j] = math.Round(rng.Float64()*10 - 3)
			}
			p.B[i] = math.Round(rng.Float64() * 8)
		}
		want, feasible := bruteForce(p)
		got := Solve(p)
		if !feasible {
			return got.Status == lp.Infeasible
		}
		return got.Status == lp.Optimal && math.Abs(got.Obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCountReported(t *testing.T) {
	r := Solve(Problem{
		C:       []float64{-1, -1, -1},
		A:       [][]float64{{2, 2, 2}},
		B:       []float64{3},
		Integer: []bool{true, true, true},
	})
	if r.Nodes < 1 {
		t.Fatalf("Nodes = %d", r.Nodes)
	}
}
