package experiments

import (
	"fmt"
	"strings"
	"time"

	"ursa/internal/baselines/autoscale"
	"ursa/internal/baselines/firm"
	"ursa/internal/core"
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
	// Ursa: one re-solve of MIP (1) by the specialised branch-and-bound
	// (core.Model.Solve), the solver the manager runs. The generic
	// internal/lp + internal/mip solvers are only its test oracle.
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
