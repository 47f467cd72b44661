package experiments

import (
	"fmt"
	"strings"
	"time"

	"ursa/internal/baselines/autoscale"
	"ursa/internal/baselines/firm"
	"ursa/internal/core"
	"ursa/internal/mip"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// ControlPlaneResult reproduces Table VI: average wall-clock control-plane
// latency (ms) for deployment decisions and for model updates.
type ControlPlaneResult struct {
	// DeployMs maps system → mean per-decision latency.
	DeployMs map[string]float64
	// UpdateMs maps system → model-update latency (Ursa: one MIP re-solve;
	// Firm: one RL training iteration; autoscaling: threshold check; Sinan
	// retraining is reported by the paper as N/A / minutes-scale).
	UpdateMs map[string]float64
}

// RunControlPlane measures decision and update latencies on the social
// network. All systems run the same deployment; latencies are wall-clock.
// Unlike the other grids, the measurement loop deliberately stays sequential
// regardless of Options.Parallelism: Table VI reports wall-clock latency,
// and running the systems concurrently would distort it through CPU
// contention. Manager preparation still reuses the shared trained-prototype
// caches, so nothing is retrained here.
func RunControlPlane(opts Options) ControlPlaneResult {
	opts.defaults()
	c, _ := AppCaseByName("social-network")
	res := ControlPlaneResult{DeployMs: map[string]float64{}, UpdateMs: map[string]float64{}}

	dur := opts.scaleTime(15*sim.Minute, 6*sim.Minute)
	ursa := opts.newUrsa(c)
	mgrs := map[string]interface {
		Attach(*services.App)
		Detach()
		AvgDecisionMillis() float64
	}{
		"ursa":   ursa,
		"sinan":  opts.newSinan(c),
		"firm":   opts.newFirm(c),
		"auto-a": autoscale.New(autoscale.AutoA()),
	}
	for _, name := range []string{"ursa", "sinan", "firm", "auto-a"} {
		opts.logf("tab6: measuring %s deployment decisions", name)
		mgr := mgrs[name]
		eng := sim.NewEngine(opts.Seed + 20)
		app, err := services.NewApp(eng, c.Spec)
		if err != nil {
			panic(err)
		}
		gen := workload.New(eng, app, workload.Constant{Value: c.TotalRPS}, c.Mix)
		gen.Start()
		mgr.Attach(app)
		eng.RunUntil(dur)
		mgr.Detach()
		res.DeployMs[name] = mgr.AvgDecisionMillis()
	}

	// Update latencies.
	// Ursa: re-solve the exact MIP (1) through the generic branch-and-bound
	// (the Gurobi-equivalent path of §V.3) plus the specialised solver.
	ex := &core.Explorer{Spec: c.Spec, Mix: c.Mix, TotalRPS: c.TotalRPS}
	model := &core.Model{
		Profiles: ursa.mgr.Profiles,
		Targets:  ursa.mgr.Targets,
		Loads:    ex.ServiceClassLoads(),
	}
	start := time.Now()
	if _, err := model.Solve(); err != nil {
		panic(err)
	}
	res.UpdateMs["ursa"] = float64(time.Since(start).Nanoseconds()) / 1e6

	// Firm: one online training iteration per agent.
	f := mgrs["firm"].(*firm.Firm)
	res.UpdateMs["firm"] = f.AvgTrainMillis()
	res.UpdateMs["auto-a"] = res.DeployMs["auto-a"]
	// Sinan retraining is a full model refit; the paper reports it as
	// minutes on a GPU (N/A for the online path).
	res.UpdateMs["sinan"] = -1

	return res
}

// SolveGenericMIP exposes the exact MIP (1) formulation through the generic
// branch-and-bound solver for a tiny instance — used by benchmarks to report
// the Gurobi-substitute solve time. It returns the solver's objective.
func SolveGenericMIP() float64 {
	// Two services × two LPR points × two percentiles, one class, built
	// directly in MIP (1) form (one-hot δ and γ, linearised products).
	// Variables: δ_a0 δ_a1 δ_b0 δ_b1 γ_a0 γ_a1 γ_b0 γ_b1 z_a00.. (8 z's).
	// For brevity the latency matrix is constant per point so γ choice is
	// free; the instance verifies wiring, not scale.
	nVar := 8 + 8
	costs := []float64{2, 4, 3, 6} // δ costs
	c := make([]float64, nVar)
	copy(c, costs)
	var A [][]float64
	var B []float64
	row := func() []float64 { return make([]float64, nVar) }
	// One-hot constraints (= 1 as two inequalities).
	oneHots := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	for _, oh := range oneHots {
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
	zBase := 8
	pairs := [][2]int{{0, 4}, {0, 5}, {1, 4}, {1, 5}, {2, 6}, {2, 7}, {3, 6}, {3, 7}}
	lat := []float64{10, 14, 30, 42, 15, 21, 45, 63}
	latRow := row()
	for zi, p := range pairs {
		r := row()
		r[p[0]] = 1
		r[p[1]] = 1
		r[zBase+zi] = -1
		A = append(A, r)
		B = append(B, 1)
		latRow[zBase+zi] = lat[zi]
	}
	// Latency constraint Σ z·D ≤ 40 (forces the fast points).
	A = append(A, latRow)
	B = append(B, 40)
	integer := make([]bool, nVar)
	for j := 0; j < 8; j++ {
		integer[j] = true
	}
	r := mip.Solve(mip.Problem{C: c, A: A, B: B, Integer: integer})
	return r.Obj
}

// Render prints Table VI.
func (r ControlPlaneResult) Render() string {
	var b strings.Builder
	b.WriteString("Table VI — control plane latency (wall-clock ms)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "system", "deploy", "update")
	for _, name := range []string{"ursa", "sinan", "firm", "auto-a"} {
		upd := "n/a"
		if v, ok := r.UpdateMs[name]; ok && v >= 0 {
			upd = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&b, "%-10s %12.3f %12s\n", name, r.DeployMs[name], upd)
	}
	return b.String()
}
