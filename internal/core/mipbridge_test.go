package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ursa/internal/lp"
	"ursa/internal/mip"
)

// BuildExactMIP emits the model as the paper's MIP (1), verbatim: one-hot
// LPR vectors δ_i, one-hot percentile vectors γ_i^j, the latency and
// residual-budget constraints, and the resource objective — with the
// bilinear δ·D·γ terms linearised through auxiliary variables
// z ≥ δ + γ − 1. Ursa's optimization engine uses the specialised
// branch-and-bound in Solve (it exploits the one-hot structure directly);
// this exact formulation, solved by the generic internal/mip stand-in for
// Gurobi, is the oracle the specialised solver is cross-checked against.
//
// The returned decoder maps a solution vector back to per-service point
// indices.
func (m *Model) BuildExactMIP() (mip.Problem, func(x []float64) map[string]int, error) {
	mm := *m
	mm.Targets = m.activeTargets()
	svcNames, opts, terms, budgets, err := mm.compile()
	if err != nil {
		return mip.Problem{}, nil, err
	}

	// Variable layout: [δ | γ | z].
	type deltaVar struct {
		svc int
		opt int // index into opts[svc]
	}
	type gammaVar struct {
		target, term, perc int
	}
	var deltas []deltaVar
	deltaIdx := map[[2]int]int{} // (svc, opt) → var
	for si := range svcNames {
		for oi := range opts[si] {
			deltaIdx[[2]int{si, oi}] = len(deltas)
			deltas = append(deltas, deltaVar{svc: si, opt: oi})
		}
	}
	var gammas []gammaVar
	gammaIdx := map[[3]int]int{}
	for t := range mm.Targets {
		for k := range terms[t] {
			for β := range Percentiles {
				gammaIdx[[3]int{t, k, β}] = len(deltas) + len(gammas)
				gammas = append(gammas, gammaVar{t, k, β})
			}
		}
	}
	nBinary := len(deltas) + len(gammas)

	// z variables: one per (target, term, option-of-that-term's-service, β).
	type zVar struct {
		target, term, opt, perc int
		lat                     float64
	}
	svcIdx := map[string]int{}
	for i, n := range svcNames {
		svcIdx[n] = i
	}
	var zs []zVar
	for t := range mm.Targets {
		for k, tm := range terms[t] {
			si := svcIdx[tm.service]
			for oi, op := range opts[si] {
				row := op.lat[t]
				if row == nil {
					return mip.Problem{}, nil, fmt.Errorf("core: option without latency row")
				}
				for β := range Percentiles {
					zs = append(zs, zVar{t, k, oi, β, row[β]})
				}
			}
		}
	}
	nVar := nBinary + len(zs)

	c := make([]float64, nVar)
	for vi, dv := range deltas {
		c[vi] = opts[dv.svc][dv.opt].cost
	}
	var A [][]float64
	var B []float64
	row := func() []float64 { return make([]float64, nVar) }
	addEq1 := func(vars []int) {
		r1, r2 := row(), row()
		for _, v := range vars {
			r1[v] = 1
			r2[v] = -1
		}
		A = append(A, r1, r2)
		B = append(B, 1, -1)
	}
	// One-hot δ per service.
	for si := range svcNames {
		var vars []int
		for oi := range opts[si] {
			vars = append(vars, deltaIdx[[2]int{si, oi}])
		}
		addEq1(vars)
	}
	// One-hot γ per (target, term).
	for t := range mm.Targets {
		for k := range terms[t] {
			var vars []int
			for β := range Percentiles {
				vars = append(vars, gammaIdx[[3]int{t, k, β}])
			}
			addEq1(vars)
		}
	}
	// Linearisation and latency constraints.
	latRows := make([][]float64, len(mm.Targets))
	for t := range mm.Targets {
		latRows[t] = row()
	}
	for zi, zv := range zs {
		v := nBinary + zi
		si := svcIdx[terms[zv.target][zv.term].service]
		r := row()
		r[deltaIdx[[2]int{si, zv.opt}]] = 1
		r[gammaIdx[[3]int{zv.target, zv.term, zv.perc}]] = 1
		r[v] = -1
		A = append(A, r)
		B = append(B, 1) // δ + γ − z ≤ 1  ⟺  z ≥ δ + γ − 1
		latRows[zv.target][v] = zv.lat
	}
	for t := range mm.Targets {
		A = append(A, latRows[t])
		B = append(B, mm.targetMs(t))
	}
	// Residual budgets: Σ residual(β)·γ ≤ budget.
	for t := range mm.Targets {
		r := row()
		for k := range terms[t] {
			for β, p := range Percentiles {
				r[gammaIdx[[3]int{t, k, β}]] = float64(residualUnits(p))
			}
		}
		A = append(A, r)
		B = append(B, float64(budgets[t]))
	}

	integer := make([]bool, nVar)
	for v := 0; v < nBinary; v++ {
		integer[v] = true
	}
	decode := func(x []float64) map[string]int {
		out := map[string]int{}
		for vi, dv := range deltas {
			if x[vi] > 0.5 {
				out[svcNames[dv.svc]] = opts[dv.svc][dv.opt].index
			}
		}
		return out
	}
	return mip.Problem{C: c, A: A, B: B, Integer: integer}, decode, nil
}

// ExactMIPSize reports the variable/constraint counts of the exact
// formulation — the scale the generic solver must handle.
func (m *Model) ExactMIPSize() (vars, constraints int, err error) {
	p, _, err := m.BuildExactMIP()
	if err != nil {
		return 0, 0, err
	}
	return len(p.C), len(p.A), nil
}

// PercentileGridString renders the grid for diagnostics.
func PercentileGridString() string {
	ps := append([]float64(nil), Percentiles...)
	sort.Float64s(ps)
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("p%g", p)
	}
	return s
}

// TestExactMIPMatchesSpecializedSolver cross-checks the generic
// branch-and-bound on the exact MIP (1) formulation against the specialised
// solver used in production: identical optimal objectives.
func TestExactMIPMatchesSpecializedSolver(t *testing.T) {
	for _, target := range []float64{150, 90, 70} {
		m := twoServiceModel(target)
		want, err := m.Solve()
		if err != nil {
			t.Fatalf("target %v: specialized solve: %v", target, err)
		}
		prob, decode, err := m.BuildExactMIP()
		if err != nil {
			t.Fatal(err)
		}
		got := mip.Solve(prob)
		if got.Status != lp.Optimal {
			t.Fatalf("target %v: generic status %v", target, got.Status)
		}
		if math.Abs(got.Obj-want.TotalCPUs) > 1e-6 {
			t.Fatalf("target %v: generic obj %v != specialized %v", target, got.Obj, want.TotalCPUs)
		}
		picks := decode(got.X)
		if len(picks) != 2 {
			t.Fatalf("decode = %v", picks)
		}
	}
}

func TestExactMIPInfeasibleAgrees(t *testing.T) {
	m := twoServiceModel(20) // specialized solver reports infeasible
	if _, err := m.Solve(); err == nil {
		t.Fatal("specialized should be infeasible")
	}
	prob, _, err := m.BuildExactMIP()
	if err != nil {
		t.Fatal(err)
	}
	if got := mip.Solve(prob); got.Status != lp.Infeasible {
		t.Fatalf("generic status = %v, want infeasible", got.Status)
	}
}

func TestExactMIPSize(t *testing.T) {
	m := twoServiceModel(150)
	vars, cons, err := m.ExactMIPSize()
	if err != nil {
		t.Fatal(err)
	}
	// 4 δ + 16 γ + 32 z = 52 vars.
	if vars != 52 {
		t.Fatalf("vars = %d, want 52", vars)
	}
	if cons <= 0 {
		t.Fatalf("constraints = %d", cons)
	}
}

func TestPercentileGridString(t *testing.T) {
	s := PercentileGridString()
	if s == "" {
		t.Fatal("empty grid")
	}
}
