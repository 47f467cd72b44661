package experiments

import (
	"fmt"

	"ursa/internal/cluster"
	"ursa/internal/faults"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

// Warmup is the settling span every scenario runs before measurement: load
// and the manager are live, but neither SLA windows nor CPU are counted.
const Warmup = 2 * sim.Minute

// Placement selects the cluster a scenario deploys on.
type Placement int

const (
	// Unplaced deploys on no cluster: replica counts are bounded only by the
	// manager.
	Unplaced Placement = iota
	// Testbed binds the app to the paper's 8-node cluster, so node faults
	// evict real placements.
	Testbed
	// Regions deploys on the grouped cluster of Scenario.Regions: replicas
	// pin to their home region, spill per Regions.Spill, and cross-region
	// RPC pays WAN latency.
	Regions
)

// RegionFail is a whole-region outage: every node of Region fails at At and
// recovers For later (0 = never).
type RegionFail struct {
	Region  string
	At, For sim.Time
}

// Scenario is one managed deployment — the procedure behind every §VII
// comparison: deploy an app, attach a manager, drive a load pattern for
// Warmup+Duration, then measure SLA violations and CPU. All times are
// absolute simulated time.
type Scenario struct {
	App AppCase
	// System names the manager: ursa, sinan, firm, auto-a, auto-b or none.
	System string
	// Pattern drives the load (nil = constant at App.TotalRPS) with request
	// Mix (nil = App.Mix).
	Pattern workload.Pattern
	Mix     workload.Mix
	// Duration is the measured span after Warmup.
	Duration sim.Time
	// Seed seeds the deployment's engine.
	Seed int64

	Placement Placement
	// Regions is the geo-layout, including its Spill policy, of a Regions
	// placement.
	Regions region.Topology

	// Faults is injected into a Testbed deployment; RegionFail fails a
	// region of a Regions deployment.
	Faults     faults.Schedule
	RegionFail RegionFail

	// Resilience, when non-nil, arms client-side RPC timeouts and retries.
	Resilience *services.ResiliencePolicy
	Telemetry  services.TelemetryConfig
	// Tracer, when non-nil, samples request traces; traces still open when
	// the run ends are flushed as incomplete.
	Tracer *trace.Tracer
}

// ClassOutcome is one request class's SLA record over the measured span.
type ClassOutcome struct {
	services.ClassSpec
	// Latency is the class's SLA-percentile latency over the whole span.
	Latency float64
	// Windows counts whole minute windows with samples; Violated counts
	// those whose percentile exceeded the SLA.
	Windows, Violated int
}

// Outcome is what one scenario measured.
type Outcome struct {
	Classes []ClassOutcome
	// ViolationRate is the violated share of (class, minute window) pairs.
	ViolationRate float64
	// Availability is completed/(completed+failed) jobs over the whole run.
	Availability float64
	AvgCPUs      float64
	// Retries and Errors sum every service's RPC retries and terminal RPC
	// errors over the whole run.
	Retries, Errors float64
	// Evicted counts replicas lost to node or region failures;
	// Unschedulable counts placements that failed for capacity.
	Evicted, Unschedulable int
	// Spilled counts replicas placed outside their home region; WANHops
	// counts cross-region RPC deliveries that paid WAN latency.
	Spilled, WANHops int
	// Backlog is jobs injected but neither completed nor failed when the run
	// ends — a wedged service shows up here even though its empty latency
	// windows can't violate any SLA.
	Backlog int
	// RecoveryMin is minutes from the first node or region failure until the
	// SLA was re-established (first of two consecutive clean minute
	// windows): 0 without a failure, -1 when it never recovered.
	RecoveryMin float64
	DecisionMs  float64
	FaultLog    []faults.Record
}

// scenario is the harness's base scenario for one cell: the experiments
// deploy on an engine seeded apart from exploration and training.
func (o *Options) scenario(c AppCase, system string, dur sim.Time) Scenario {
	return Scenario{App: c, System: system, Duration: dur, Seed: o.Seed + 1000}
}

// mustRun is Run for harness cells, whose fixed inputs cannot be invalid.
func (o *Options) mustRun(s Scenario) Outcome {
	out, _, err := o.Run(s)
	if err != nil {
		panic(err)
	}
	return out
}

// Run deploys the scenario, drives it to Warmup+Duration and measures it.
// It also returns the deployed app, whose telemetry callers may export.
// Invalid input — an unknown system, node or region, node faults off the
// testbed, a region failure off a region topology, or a region placement
// without regions — is an error, reported before any preparation runs.
func (o *Options) Run(s Scenario) (Outcome, *services.App, error) {
	if s.Mix == nil {
		s.Mix = s.App.Mix
	}
	if s.Pattern == nil {
		s.Pattern = workload.Constant{Value: s.App.TotalRPS}
	}
	var (
		cl     *cluster.Cluster
		rm     *region.Map
		placer services.Placer
	)
	switch s.Placement {
	case Testbed:
		cl = cluster.PaperTestbed()
	case Regions:
		if s.Regions.Empty() {
			return Outcome{}, nil, fmt.Errorf("%s declares no regions (add a regions: section to the spec)", s.App.Name)
		}
		cl = s.Regions.Cluster(cluster.WorstFit)
		var err error
		if rm, err = region.New(s.Regions, cl); err != nil {
			return Outcome{}, nil, err
		}
		placer = rm
	}
	for _, f := range s.Faults.NodeFails {
		if s.Placement != Testbed {
			return Outcome{}, nil, fmt.Errorf("node failure %q needs the testbed placement (fail a region instead)", f.Node)
		}
		if cl.NodeByName(f.Node) == nil {
			return Outcome{}, nil, fmt.Errorf("unknown node %q (testbed has node-0 … node-7)", f.Node)
		}
	}
	if f := s.RegionFail.Region; f != "" && rm == nil {
		return Outcome{}, nil, fmt.Errorf("region failure %q needs a region placement", f)
	} else if f != "" && !contains(rm.Regions(), f) {
		return Outcome{}, nil, fmt.Errorf("unknown region %q", f)
	}
	mgr, err := o.NewManager(s.App, s.System)
	if err != nil {
		return Outcome{}, nil, err
	}

	eng := sim.NewEngine(s.Seed)
	app, err := services.NewAppTelemetryPlaced(eng, s.App.Spec, 0, cl, s.Telemetry, placer)
	if err != nil {
		return Outcome{}, nil, fmt.Errorf("deploying %s: %w", s.App.Name, err)
	}
	in := faults.New(eng, app, cl, s.Faults)
	in.Start()
	regionEvicted := 0
	if rm != nil {
		// Bind after faults.Start so the WAN hook chains in front of any
		// fault-injector net rules.
		rm.Bind(eng, app)
		if f := s.RegionFail; f.Region != "" {
			eng.Schedule(f.At, func() { regionEvicted = rm.FailRegion(f.Region) })
			if f.For > 0 {
				eng.Schedule(f.At+f.For, func() { rm.RecoverRegion(f.Region) })
			}
		}
	}
	if s.Resilience != nil {
		app.SetResilience(*s.Resilience)
	}
	app.Tracer = s.Tracer
	workload.New(eng, app, s.Pattern, s.Mix).Start()
	if mgr != nil {
		mgr.Attach(app)
	}

	eng.RunUntil(Warmup)
	allocStart := app.AllocIntegralCPUSeconds()
	end := Warmup + s.Duration
	eng.RunUntil(end)
	allocEnd := app.AllocIntegralCPUSeconds()

	out := Outcome{
		Availability:  app.Availability(),
		AvgCPUs:       (allocEnd - allocStart) / s.Duration.Seconds(),
		Evicted:       in.Evicted + regionEvicted,
		Unschedulable: app.UnschedulableEvents,
		Backlog:       app.InjectedJobs - app.CompletedJobs() - app.FailedJobs(),
		FaultLog:      in.Records,
	}
	if mgr != nil {
		mgr.Detach()
		out.DecisionMs = mgr.AvgDecisionMillis()
	}
	if s.Tracer != nil {
		s.Tracer.FlushOpen(end)
	}
	out.Classes = judgeClasses(app, s.App.Spec, Warmup, end)
	out.ViolationRate = violatedShare(out.Classes)
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		out.Retries += svc.RPCRetries.Total(0, end)
		out.Errors += svc.RPCErrors.Total(0, end)
	}
	if rm != nil {
		out.Spilled, out.WANHops = rm.Spilled, rm.WANHops
	}
	if failAt, ok := s.failStart(); ok {
		out.RecoveryMin = recoveryMinutes(app, s.App.Spec, failAt, end)
	}
	return out, app, nil
}

// failStart is the time of the scenario's first node or region failure.
func (s Scenario) failStart() (sim.Time, bool) {
	at, ok := s.RegionFail.At, s.RegionFail.Region != ""
	for _, f := range s.Faults.NodeFails {
		if !ok || f.At < at {
			at, ok = f.At, true
		}
	}
	return at, ok
}

// judgeClasses checks each class against its SLA in every whole minute
// window of [from, to). A trailing partial window (when the scaled duration
// is not minute-aligned) is dropped rather than counted: its percentile rests
// on a fraction of a window's samples, which would skew the denominator at
// small Scale. Classes that never saw a request are left out.
func judgeClasses(app *services.App, spec services.AppSpec, from, to sim.Time) []ClassOutcome {
	var out []ClassOutcome
	for _, cs := range spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			continue
		}
		co := ClassOutcome{ClassSpec: cs, Latency: rec.PercentileBetween(from, to, cs.SLAPercentile)}
		for w := from; w+sim.Minute <= to; w += sim.Minute {
			if rec.Count(w, w+sim.Minute) == 0 {
				continue
			}
			co.Windows++
			if rec.PercentileBetween(w, w+sim.Minute, cs.SLAPercentile) > cs.SLAMillis {
				co.Violated++
			}
		}
		out = append(out, co)
	}
	return out
}

// violationRate is the per-(class, window) SLA violation fraction of an app
// over [from, to).
func violationRate(app *services.App, spec services.AppSpec, from, to sim.Time) float64 {
	return violatedShare(judgeClasses(app, spec, from, to))
}

// violatedShare is the violated share of all judged (class, window) pairs.
func violatedShare(classes []ClassOutcome) float64 {
	total, violated := 0, 0
	for _, co := range classes {
		total += co.Windows
		violated += co.Violated
	}
	if total == 0 {
		return 0
	}
	return float64(violated) / float64(total)
}

// recoveryMinutes measures the time from the failure until the SLA is
// re-established: the start of the first of two consecutive minute-aligned
// windows in which every class with samples meets its SLA (two in a row so a
// single lucky window during the outage does not count as recovery). Returns
// -1 when no such pair exists before the run ends.
func recoveryMinutes(app *services.App, spec services.AppSpec, failAt, end sim.Time) float64 {
	start := failAt - failAt%sim.Minute
	if start < failAt {
		start += sim.Minute
	}
	clean := 0
	for w := start; w+sim.Minute <= end; w += sim.Minute {
		ok, any := true, false
		for _, cs := range spec.Classes {
			rec := app.E2E.Class(cs.Name)
			if rec == nil || rec.Count(w, w+sim.Minute) == 0 {
				continue
			}
			any = true
			if rec.PercentileBetween(w, w+sim.Minute, cs.SLAPercentile) > cs.SLAMillis {
				ok = false
			}
		}
		if ok && any {
			clean++
			if clean == 2 {
				return (w - sim.Minute - failAt).Seconds() / 60
			}
		} else {
			clean = 0
		}
	}
	return -1
}
