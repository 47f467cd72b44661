package services

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ursa/internal/sim"
)

// kitchenSinkSpec exercises every step mode the frame machine implements:
// Compute (stochastic and deterministic), fast-path nested RPC with and
// without an ingress window, event RPC through a bounded daemon pool, MQ,
// Spawn of a derived class, and nested Par.
func kitchenSinkSpec() AppSpec {
	return AppSpec{
		Name: "kitchen-sink",
		Services: []ServiceSpec{
			{
				Name: "front", Threads: 16, CPUs: 4, InitialReplicas: 2,
				Handlers: map[string][]Step{
					"mixed": Seq(
						Compute{MeanMs: 2, CV: 0.5},
						Par{Branches: [][]Step{
							Seq(Call{Service: "mid", Mode: NestedRPC}),
							Seq(Compute{MeanMs: 1, CV: -1}, Call{Service: "gated", Mode: NestedRPC, Class: "side"}),
						}},
						Call{Service: "events", Mode: EventRPC, Class: "evt"},
						Call{Service: "mq", Mode: MQ, Class: "msg"},
						Compute{MeanMs: 0.5, CV: 1},
					),
					"quick": Seq(Compute{MeanMs: 1, CV: 0.3}, Spawn{Service: "mq", Class: "derived"}),
				},
			},
			{
				Name: "mid", Threads: 16, CPUs: 4, InitialReplicas: 2, Daemons: 2,
				Handlers: map[string][]Step{
					"mixed": Seq(Compute{MeanMs: 3, CV: 0.7}, Call{Service: "leaf", Mode: NestedRPC}),
				},
			},
			{
				Name: "gated", Threads: 8, CPUs: 2, InitialReplicas: 1,
				IngressCostMs: 0.1, IngressWindow: 4,
				Handlers: map[string][]Step{
					"side": Seq(Compute{MeanMs: 2, CV: 0.4}),
				},
			},
			{
				Name: "leaf", Threads: 16, CPUs: 2, InitialReplicas: 2,
				Handlers: map[string][]Step{
					"mixed": Seq(Compute{MeanMs: 1.5, CV: 0.6}),
				},
			},
			{
				Name: "events", Threads: 8, CPUs: 2, InitialReplicas: 1, Daemons: 2,
				Handlers: map[string][]Step{
					"evt": Seq(Compute{MeanMs: 4, CV: 0.5}),
				},
			},
			{
				Name: "mq", Threads: 4, CPUs: 2, InitialReplicas: 1,
				Handlers: map[string][]Step{
					"msg":     Seq(Compute{MeanMs: 2, CV: 0.5}),
					"derived": Seq(Compute{MeanMs: 1, CV: -1}),
				},
			},
		},
		Classes: []ClassSpec{
			{Name: "mixed", Entry: "front", SLAPercentile: 99, SLAMillis: 200},
			{Name: "quick", Entry: "front", Priority: 1, SLAPercentile: 95, SLAMillis: 50},
			{Name: "side", Entry: "gated", Derived: true, SLAPercentile: 99, SLAMillis: 100},
			{Name: "evt", Entry: "events", Derived: true, SLAPercentile: 99, SLAMillis: 100},
			{Name: "msg", Entry: "mq", Derived: true, SLAPercentile: 99, SLAMillis: 500},
			{Name: "derived", Entry: "mq", Derived: true, SLAPercentile: 99, SLAMillis: 500},
		},
	}
}

// frameScenario runs the kitchen-sink app for 5 simulated minutes under a
// deterministic Poisson load and returns a behaviour fingerprint: event
// counts, job accounting, and per-class / per-tier latency quantiles. faults
// optionally enables resilience + network faults and a mid-run replica
// crash.
func frameScenario(seed int64, reference, faults bool) string {
	eng := sim.NewEngine(seed)
	app := MustNewApp(eng, kitchenSinkSpec())
	if reference {
		useReferenceSteps(app)
	}
	if faults {
		app.SetResilience(ResiliencePolicy{TimeoutMs: 100, MaxRetries: 2, BackoffBaseMs: 5, BackoffMaxMs: 20, JitterFrac: 0.2})
		app.Net = &delayNet{delays: []sim.Time{2 * sim.Millisecond, 0, 5 * sim.Millisecond, 0, 0, 3 * sim.Millisecond}}
		eng.Schedule(2*sim.Minute, func() { app.Service("mid").CrashReplica(0) })
		eng.Schedule(2*sim.Minute+30*sim.Second, func() { app.Service("mid").SetReplicas(2) })
	}
	// Deterministic open-loop arrivals, independent of the workload package
	// (this pins services-layer behaviour in isolation).
	rng := rand.New(rand.NewSource(seed * 7919))
	var arrive func()
	arrive = func() {
		if rng.Float64() < 0.3 {
			app.Inject("quick")
		} else {
			app.Inject("mixed")
		}
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/80), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(5 * sim.Minute)

	var sb strings.Builder
	fmt.Fprintf(&sb, "fired=%d now=%d injected=%d completed=%d failed=%d unsched=%d\n",
		eng.Fired(), eng.Now(), app.InjectedJobs, app.CompletedJobs(), app.FailedJobs(), app.UnschedulableEvents)
	for _, class := range app.E2E.Classes() {
		w := app.E2E.Class(class)
		fmt.Fprintf(&sb, "e2e %s n=%d p50=%.9f p99=%.9f\n", class,
			w.Count(0, 5*sim.Minute),
			w.PercentileBetween(0, 5*sim.Minute, 50),
			w.PercentileBetween(0, 5*sim.Minute, 99))
	}
	for _, name := range app.ServiceNames() {
		s := app.Service(name)
		fmt.Fprintf(&sb, "svc %s n=%d p95=%.9f q=%d arr=%.1f\n", name,
			s.RespTime.Count(0, 5*sim.Minute),
			s.RespTime.PercentileBetween(0, 5*sim.Minute, 95),
			s.QueueLen(),
			s.ArrivalsAll.Total(0, 5*sim.Minute))
	}
	return sb.String()
}

// TestFramesMatchReference pins the pooled step-frame machine byte-identical
// to the closure-per-hop reference interpreter, across seeds, with and
// without resilience + network faults + a mid-run crash.
func TestFramesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence sweep")
	}
	for seed := int64(1); seed <= 12; seed++ {
		for _, faults := range []bool{false, true} {
			ref := frameScenario(seed, true, faults)
			fused := frameScenario(seed, false, faults)
			if ref != fused {
				t.Fatalf("seed %d faults=%v: fused frames diverge from reference\nref:\n%s\nfused:\n%s",
					seed, faults, ref, fused)
			}
		}
	}
}

// TestFrameAllocsBelowReference pins the point of the fusion: the frame
// machine must allocate strictly less per request than the reference
// interpreter on the same scenario (the reference pays a step closure, a
// finish closure and a continuation closure per hop; frames and requests are
// pool-recycled).
func TestFrameAllocsBelowReference(t *testing.T) {
	measure := func(reference bool) float64 {
		eng := sim.NewEngine(3)
		app := MustNewApp(eng, kitchenSinkSpec())
		if reference {
			useReferenceSteps(app)
		}
		rng := rand.New(rand.NewSource(99))
		var arrive func()
		arrive = func() {
			app.Inject("mixed")
			eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/60), arrive)
		}
		eng.Schedule(0, arrive)
		eng.RunUntil(1 * sim.Minute) // warm pools and metric windows
		before := app.InjectedJobs
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng.RunUntil(3 * sim.Minute)
		runtime.ReadMemStats(&m1)
		jobs := app.InjectedJobs - before
		if jobs < 100 {
			t.Fatalf("only %d jobs in measured window", jobs)
		}
		return float64(m1.Mallocs-m0.Mallocs) / float64(jobs)
	}
	ref := measure(true)
	fused := measure(false)
	t.Logf("allocs/job: reference=%.2f fused=%.2f", ref, fused)
	if fused >= ref-4 {
		t.Fatalf("fused path allocates %.2f/job vs reference %.2f — expected ≥4 saved", fused, ref)
	}
}
