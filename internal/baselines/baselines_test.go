package baselines

import (
	"math"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

func obsApp(t *testing.T) (*sim.Engine, *services.App) {
	t.Helper()
	eng := sim.NewEngine(1)
	app := services.MustNewApp(eng, services.AppSpec{
		Name: "obs",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 64, CPUs: 2, InitialReplicas: 2,
			Handlers: map[string][]services.Step{
				"get": services.Seq(services.Compute{MeanMs: 5, CV: -1}),
			},
		}},
		Classes: []services.ClassSpec{{Name: "get", Entry: "api", SLAPercentile: 99, SLAMillis: 20}},
	})
	return eng, app
}

func TestObserveBasics(t *testing.T) {
	eng, app := obsApp(t)
	g := workload.New(eng, app, workload.Constant{Value: 100}, workload.Mix{"get": 1})
	g.Start()
	eng.RunUntil(3 * sim.Minute)
	obs := Observe(app, 2*sim.Minute, 3*sim.Minute)
	so, ok := obs.Services["api"]
	if !ok {
		t.Fatal("service missing from observation")
	}
	if so.Replicas != 2 || so.CPUAlloc != 4 {
		t.Fatalf("service obs = %+v", so)
	}
	if math.Abs(so.RPS-100) > 10 {
		t.Fatalf("RPS = %v", so.RPS)
	}
	// util ≈ 100 rps × 5ms / 4 cores = 0.125.
	if math.Abs(so.Util-0.125) > 0.05 {
		t.Fatalf("Util = %v", so.Util)
	}
	if obs.Violated {
		t.Fatal("healthy app reported violated")
	}
	if obs.P99["get"] <= 0 || obs.LatP["get"] <= 0 {
		t.Fatalf("latency missing: %+v", obs)
	}
}

func TestObserveDetectsViolation(t *testing.T) {
	eng, app := obsApp(t)
	g := workload.New(eng, app, workload.Constant{Value: 100}, workload.Mix{"get": 1})
	g.Start()
	app.Service("api").SetCPUFactor(0.05) // 5ms burst → ≥50ms, SLA 20ms
	eng.RunUntil(2 * sim.Minute)
	obs := Observe(app, sim.Minute, 2*sim.Minute)
	if !obs.Violated {
		t.Fatalf("throttled app not flagged: %+v", obs.LatP)
	}
}
