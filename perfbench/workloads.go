package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ursa/examples/specs"
	"ursa/internal/baselines"
	"ursa/internal/baselines/autoscale"
	"ursa/internal/baselines/firm"
	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/experiments"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/spec"
	"ursa/internal/workload"
)

// workloadDef is one benchmark workload: an application, a manager, a load
// shape and a run length. Each is chosen so that a different layer of the
// program carries most of the host time (see README.md).
type workloadDef struct {
	Name   string
	System string // "ursa", "auto-b" or "firm"
	// Scale is the experiments.Options scale that sizes Ursa's profiling
	// and exploration; Firm's pretraining length is FirmSamples.
	Scale float64
	// Replicas multiplies every service's initial and maximum replicas;
	// RPSMult multiplies the spec's nominal rate.
	Replicas int
	RPSMult  float64
	Load     string // "diurnal", "constant" or "burst"
	Minutes  int    // measured deployment length after the warm-up
	Sketch   bool   // sketch-backed latency telemetry instead of exact
	Regions  bool   // deploy on experiments.SocialNetworkRegions with spill
	// FirmSamples is the number of pretraining windows for System "firm".
	FirmSamples int
}

// firmPretrainSeed fixes Firm's pretraining: the pretrained agents are an
// input to the deployment, like a trained model, and the workload seed
// drives the deployment and its online training. Pretraining with the
// workload seed would swing the deployed allocation threefold between seeds
// (71 to 311 cores), and the run's host time and memory with it.
const firmPretrainSeed = 1

const (
	specFile    = "social-network.yaml"
	failRegion  = "eu-west"
	warm        = 2 * sim.Minute
	sketchAlpha = 0.01
)

var workloads = []workloadDef{
	{Name: "ursa-diurnal", System: "ursa", Scale: 0.5, Replicas: 1, RPSMult: 1, Load: "diurnal", Minutes: 40},
	{Name: "sim-10x", System: "auto-b", Replicas: 10, RPSMult: 10, Load: "diurnal", Minutes: 6, Sketch: true},
	{Name: "region-failover", System: "ursa", Scale: 0.25, Replicas: 1, RPSMult: 1, Load: "constant", Minutes: 20, Regions: true},
	{Name: "firm-burst", System: "firm", Replicas: 1, RPSMult: 1, Load: "burst", Minutes: 20, FirmSamples: 150},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tiny shrinks a workload for the benchmark's own tests: shorter
// deployments and the smallest training scale. Exploration keeps its floors,
// so an Ursa run stays a few seconds long.
func (w workloadDef) tiny() workloadDef {
	w.Minutes = 3
	w.Scale = 0.1
	if w.Replicas > 2 {
		w.Replicas, w.RPSMult = 2, 2
	}
	if w.FirmSamples > 0 {
		w.FirmSamples = 20
	}
	return w
}

// fingerprint is the deterministic, modelled output of one run. At the
// default seed it must equal the stored one; on every seed it must satisfy
// the invariants in gate.go, and it must not change with tracing.
type fingerprint struct {
	Events          uint64  `json:"sim_events"`
	Injected        int     `json:"jobs_injected"`
	Completed       int     `json:"jobs_completed"`
	Failed          int     `json:"jobs_failed"`
	SLAViolationPct float64 `json:"sla_violation_pct"`
	CPUCores        float64 `json:"cpu_cores"`
	FailedPct       float64 `json:"failed_pct"`
	RecoveryMin     float64 `json:"recovery_min"`
	ExploreSamples  int     `json:"explore_samples"`
	ProfilesDigest  string  `json:"profiles_sha256"`
	PretrainWindows int     `json:"pretrain_windows"`
	Spilled         int     `json:"region_spilled"`
	WANHops         int     `json:"region_wan_hops"`
	Evicted         int     `json:"region_evicted"`
	Unschedulable   int     `json:"cluster_unschedulable"`
	E2ERecorded     int     `json:"e2e_recorded"`
}

// runResult is what one cold child process reports to the orchestrator.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Host     map[string]float64 `json:"host"`
	Layer    map[string]float64 `json:"layer"`
	Print    fingerprint        `json:"fingerprint"`
	Spans    []span             `json:"spans,omitempty"`
}

// placeShim is a delegating services.Placer that times and counts every
// placement the region map serves.
type placeShim struct {
	inner   services.Placer
	calls   int
	elapsed time.Duration
}

func (p *placeShim) PlaceReplica(service string, cpus float64) (cluster.Placement, error) {
	t := time.Now()
	pl, err := p.inner.PlaceReplica(service, cpus)
	p.elapsed += time.Since(t)
	p.calls++
	return pl, err
}

// ranInProcess guards against a second run in one process: the experiment
// harness memoises profiling, exploration and training per (app, seed,
// scale), so a repeated run would report a set-up it never paid for.
var ranInProcess bool

var errSecondRun = errors.New("a workload already ran in this process; the harness caches set-up, so every run needs a fresh process")

// scaleInt mirrors experiments.Options' count scaling (floor applied).
func scaleInt(n, min int, scale float64) int {
	if v := int(float64(n) * scale); v > min {
		return v
	}
	return min
}

// runOnce executes one workload in this process, from spec compilation to
// the end-of-run report. With traced set it records spans around every
// call into a layer and re-drives Ursa's preparation service by service.
func runOnce(w workloadDef, seed int64, traced bool) (*runResult, error) {
	if ranInProcess {
		return nil, errSecondRun
	}
	ranInProcess = true

	tr := newTracer(traced, fmt.Sprintf("%s-s%d-%d", w.Name, seed, time.Now().UnixNano()))
	t0 := time.Now()
	root := tr.begin(w.Name, -1)
	res := &runResult{Workload: w.Name, Seed: seed, Traced: traced,
		Host: map[string]float64{}, Layer: map[string]float64{}}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Set-up: spec compilation, manager preparation (Ursa profiling and
	// exploration, or Firm pretraining), app construction and attach.
	setup := tr.begin("setup", root)
	sp := tr.begin("spec.build", setup)
	tSpec := time.Now()
	data, err := specs.FS.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	file, err := spec.Parse(specFile, data)
	if err != nil {
		return nil, err
	}
	compiled, err := spec.Build(file)
	if err != nil {
		return nil, err
	}
	res.Layer["spec.build_ms"] = msSince(tSpec)
	tr.end(sp)

	c := experiments.AppCase{Name: compiled.Spec.Name, Spec: compiled.Spec,
		Mix: compiled.Mix, TotalRPS: compiled.Rate * w.RPSMult}
	for i := range c.Spec.Services {
		c.Spec.Services[i].InitialReplicas *= w.Replicas
		c.Spec.Services[i].MaxReplicas *= w.Replicas
	}

	var (
		ursa *core.Manager
		fm   *firm.Firm
		mgr  baselines.Manager
		ex   *core.Explorer
	)
	prof := tr.begin("setup.profile", setup)
	tProf := time.Now()
	if w.System == "ursa" && traced {
		ex = profileTraced(tr, prof, c, seed, w.Scale, res.Layer)
	}
	res.Layer["core.profile_s"] = time.Since(tProf).Seconds()
	tr.end(prof)

	expl := tr.begin("setup.explore", setup)
	tExpl := time.Now()
	if w.System == "ursa" {
		var profiles map[string]*core.Profile
		if traced {
			profiles, err = exploreTraced(tr, expl, ex, seed, w.Scale, res)
			if err != nil {
				return nil, err
			}
			// The harness hands out deep copies, whose percentile tables the
			// first solve rebuilds; deploy a copy here too, so the traced
			// decision path does the same work as the untraced one.
			profiles = core.CloneProfiles(profiles)
		} else {
			// The program's own preparation path, as ursa-sim runs it.
			opts := experiments.Options{Seed: seed, Scale: w.Scale, Parallelism: 1}
			var sum core.ExplorationSummary
			_, profiles, sum = opts.UrsaProfiles(c)
			res.Print.ExploreSamples = sum.Samples
		}
		var buf bytes.Buffer
		if err := core.SaveProfiles(&buf, profiles); err != nil {
			return nil, err
		}
		h := sha256.Sum256(buf.Bytes())
		res.Print.ProfilesDigest = hex.EncodeToString(h[:])
		ursa = core.NewManager(c.Spec, profiles)
	}
	res.Layer["core.explore_s"] = time.Since(tExpl).Seconds()
	tr.end(expl)

	pre := tr.begin("setup.pretrain", setup)
	tPre := time.Now()
	switch w.System {
	case "firm":
		// Mirrors the experiment harness's Firm preparation (newFirm, whose
		// specServiceNames also sorts the services) at its floor of 150
		// pretraining windows; the deployed instance is a clone, as there.
		proto := firm.New(c.Spec, sortedServiceNames(c.Spec), c.TotalRPS*2, firm.Config{Seed: firmPretrainSeed})
		pretrain := firm.Pretrain(proto, c.Mix, c.TotalRPS, firm.PretrainConfig{
			Samples: w.FirmSamples, Window: 15 * sim.Second, Seed: firmPretrainSeed,
		})
		proto.SetExplore(false)
		res.Layer["ml.train_s"] = proto.TrainSeconds
		res.Layer["ml.train_iters"] = float64(proto.TrainIterations)
		res.Print.PretrainWindows = pretrain.Samples
		fm = proto.Clone()
		mgr = fm
	case "auto-b":
		mgr = autoscale.New(autoscale.AutoB())
	}
	res.Layer["baselines.pretrain_s"] = time.Since(tPre).Seconds()
	tr.end(pre)

	// Deployment: a fresh engine and app, the load generator and the manager.
	dur := sim.Time(w.Minutes) * sim.Minute
	eng := sim.NewEngine(seed + 1000)
	tc := services.TelemetryConfig{}
	if w.Sketch {
		tc.SketchAlpha = sketchAlpha
	}
	var (
		app  *services.App
		rmap *region.Map
		shim *placeShim
	)
	if w.Regions {
		topo := experiments.SocialNetworkRegions()
		topo.Spill = true
		cl := topo.Cluster(cluster.WorstFit)
		if rmap, err = region.New(topo, cl); err != nil {
			return nil, err
		}
		shim = &placeShim{inner: rmap}
		if app, err = services.NewAppTelemetryPlaced(eng, c.Spec, 0, cl, tc, shim); err != nil {
			return nil, err
		}
		rmap.Bind(eng, app)
		app.Placer = shim // Bind installs the map itself; keep the timing shim in front
		app.SetResilience(services.ResiliencePolicy{})
	} else if app, err = services.NewAppTelemetry(eng, c.Spec, 0, nil, tc); err != nil {
		return nil, err
	}
	failAt, failFor := warm+dur/3, dur/4
	if rmap != nil {
		eng.Schedule(failAt, func() { res.Print.Evicted = rmap.FailRegion(failRegion) })
		eng.Schedule(failAt+failFor, func() { rmap.RecoverRegion(failRegion) })
	}
	gen := workload.New(eng, app, loadPattern(w.Load, c.TotalRPS, dur), c.Mix)
	gen.Start()

	att := tr.begin("setup.attach", setup)
	tAtt := time.Now()
	if ursa != nil {
		if err := ursa.Run(app, c.Mix, c.TotalRPS, core.ControllerConfig{}, core.AnomalyConfig{}); err != nil {
			return nil, fmt.Errorf("ursa deploy: %w", err)
		}
		mgr = ursaManager{ursa}
	} else {
		mgr.Attach(app)
	}
	res.Layer["core.initial_solve_ms"] = msSince(tAtt)
	tr.end(att)
	tr.end(setup)
	res.Host["setup_s"] = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)

	// Measured deployment.
	dep := tr.begin("deploy", root)
	tDep := time.Now()
	wu := tr.begin("deploy.warmup", dep)
	eng.RunUntil(warm)
	tr.end(wu)
	alloc0 := app.AllocIntegralCPUSeconds()
	meas := tr.begin("deploy.measure", dep)
	eng.RunUntil(warm + dur)
	tr.end(meas)
	alloc1 := app.AllocIntegralCPUSeconds()
	mgr.Detach()
	deploySec := time.Since(tDep).Seconds()
	tr.end(dep)
	runtime.ReadMemStats(&ms2)

	// End-of-run report: the modelled metrics, from the app's telemetry.
	rep := tr.begin("report", root)
	tRep := time.Now()
	end := warm + dur
	res.Print.SLAViolationPct = 100 * violationRate(app, c.Spec, warm, end)
	if rmap != nil {
		res.Print.RecoveryMin = recoveryMinutes(app, c.Spec, failAt, end)
	}
	res.Print.E2ERecorded = e2eRecorded(app, c.Spec, end)
	res.Layer["metrics.report_ms"] = msSince(tRep)
	tr.end(rep)

	res.Print.Events = eng.Fired()
	res.Print.Injected = app.InjectedJobs
	res.Print.Completed = app.CompletedJobs()
	res.Print.Failed = app.FailedJobs()
	res.Print.CPUCores = (alloc1 - alloc0) / dur.Seconds()
	if app.InjectedJobs > 0 {
		res.Print.FailedPct = 100 * float64(app.FailedJobs()) / float64(app.InjectedJobs)
	}
	res.Print.Unschedulable = app.UnschedulableEvents
	if rmap != nil {
		res.Print.Spilled, res.Print.WANHops = rmap.Spilled, rmap.WANHops
	}

	res.Host["sim_speed"] = end.Seconds() / deploySec
	res.Host["decision_ms"] = mgr.AvgDecisionMillis()
	res.Layer["core.decision_ms"] = res.Host["decision_ms"]

	L := res.Layer
	L["core.explore_samples"] = float64(res.Print.ExploreSamples)
	if ursa != nil {
		L["core.optimize_calls"] = float64(ursa.OptimizeCount)
		L["core.optimize_ms"] = ursa.OptimizeSeconds * 1e3
		if ursa.OptimizeCount > 0 {
			L["core.fast_share"] = float64(ursa.FastResolveCount) / float64(ursa.OptimizeCount)
		}
		L["core.tick_calls"] = float64(ursa.Controller.DecisionCount)
		L["core.tick_ms"] = ursa.Controller.DecisionSeconds * 1e3
	}
	L["sim.events"] = float64(res.Print.Events)
	L["sim.ns_per_event"] = deploySec * 1e9 / float64(max(res.Print.Events, 1))
	jobs := float64(max(app.InjectedJobs, 1))
	L["services.jobs"] = float64(app.InjectedJobs)
	L["services.allocs_per_job"] = float64(ms2.Mallocs-ms1.Mallocs) / jobs
	L["services.bytes_per_job"] = float64(ms2.TotalAlloc-ms1.TotalAlloc) / jobs
	var retries, rpcErrs float64
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		retries += svc.RPCRetries.Total(0, end)
		rpcErrs += svc.RPCErrors.Total(0, end)
	}
	L["services.rpc_retries"] = retries
	L["services.rpc_errors"] = rpcErrs
	L["metrics.footprint_mib"] = float64(app.TelemetryFootprintBytes()) / (1 << 20)
	if shim != nil {
		L["cluster.place_calls"] = float64(shim.calls)
		L["cluster.place_us"] = float64(shim.elapsed.Nanoseconds()) / 1e3 / float64(max(shim.calls, 1))
		L["cluster.unschedulable"] = float64(app.UnschedulableEvents)
	}
	L["region.spilled"] = float64(res.Print.Spilled)
	L["region.wan_hops"] = float64(res.Print.WANHops)
	L["region.evicted"] = float64(res.Print.Evicted)
	if fm != nil {
		L["ml.train_s"] += fm.TrainSeconds
		L["ml.train_iters"] += float64(fm.TrainIterations)
		L["ml.train_share"] = L["ml.train_s"] / (L["baselines.pretrain_s"] + deploySec)
	}
	L["runtime.setup_alloc_mib"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	L["runtime.setup_gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	L["runtime.deploy_alloc_mib"] = float64(ms2.TotalAlloc-ms1.TotalAlloc) / (1 << 20)
	L["runtime.deploy_gc_cycles"] = float64(ms2.NumGC - ms1.NumGC)

	tr.end(root)
	res.Spans = tr.spans
	return res, nil
}

// ursaManager adapts core.Manager to baselines.Manager so the deployment
// loop treats every system alike; AvgDecisionMillis is the manager's
// combined tick + solve mean (Table VI).
type ursaManager struct{ m *core.Manager }

func (u ursaManager) Name() string               { return "ursa" }
func (u ursaManager) Attach(*services.App)       {}
func (u ursaManager) Detach()                    { u.m.Stop() }
func (u ursaManager) AvgDecisionMillis() float64 { return u.m.AvgDecisionMillis() }

// profileTraced re-drives the backpressure profiling of
// experiments.Options.UrsaProfiles service by service, one span each, with
// the same settings; the run's profile digest must match the untraced run.
func profileTraced(tr *tracer, parent int, c experiments.AppCase, seed int64, scale float64, L map[string]float64) *core.Explorer {
	ex := &core.Explorer{Spec: c.Spec, Mix: c.Mix, TotalRPS: c.TotalRPS, Thresholds: map[string]float64{}}
	loads := ex.ServiceClassLoads()
	var calls, maxS float64
	for i := range c.Spec.Services {
		ss := c.Spec.Services[i]
		if ss.IngressCostMs <= 0 {
			ex.Thresholds[ss.Name] = 1.0
			continue
		}
		s := tr.begin("profile/"+ss.Name, parent)
		t := time.Now()
		perReplica := core.ScaleProfilingLoad(ss, loads[ss.Name], 0.85)
		r := core.ProfileBackpressureThreshold(ss, perReplica, core.ProfilerConfig{
			Seed:           seed,
			WindowsPerStep: scaleInt(8, 4, scale),
			Window:         15 * sim.Second,
			Factors:        []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0},
		})
		maxS = maxf(maxS, time.Since(t).Seconds())
		tr.end(s)
		calls++
		ex.Thresholds[ss.Name] = maxf(r.Threshold, 0.3)
	}
	L["core.profile_calls"] = calls
	L["core.profile_max_s"] = maxS
	return ex
}

// exploreTraced re-drives Explorer.ExploreAll service by service.
func exploreTraced(tr *tracer, parent int, ex *core.Explorer, seed int64, scale float64, res *runResult) (map[string]*core.Profile, error) {
	cfg := core.ExploreConfig{
		WindowsPerPoint:  scaleInt(10, 4, scale),
		Window:           15 * sim.Second,
		SLAViolationFreq: 0.10,
		Seed:             seed,
	}
	profiles := map[string]*core.Profile{}
	var maxS float64
	for i := range ex.Spec.Services {
		name := ex.Spec.Services[i].Name
		s := tr.begin("explore/"+name, parent)
		t := time.Now()
		p, err := ex.ExploreService(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("exploring %s: %w", name, err)
		}
		maxS = maxf(maxS, time.Since(t).Seconds())
		tr.end(s)
		profiles[name] = p
		res.Print.ExploreSamples += p.Samples
	}
	res.Layer["core.explore_max_s"] = maxS
	return profiles, nil
}

func loadPattern(kind string, rps float64, dur sim.Time) workload.Pattern {
	switch kind {
	case "diurnal":
		return workload.Diurnal{Base: rps * 0.5, Peak: rps * 1.5, Period: dur}
	case "burst":
		return workload.Modulate{Base: workload.Constant{Value: rps}, Factor: 2, Start: dur * 2 / 5, Len: dur / 5}
	}
	return workload.Constant{Value: rps}
}

// violationRate is the share of (class, whole one-minute window) pairs in
// [from, to) whose SLA percentile exceeds the class's SLA.
func violationRate(app *services.App, s services.AppSpec, from, to sim.Time) float64 {
	total, violated := 0, 0
	for _, cs := range s.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			continue
		}
		for w := from; w+sim.Minute <= to; w += sim.Minute {
			if rec.Count(w, w+sim.Minute) == 0 {
				continue
			}
			total++
			if rec.PercentileBetween(w, w+sim.Minute, cs.SLAPercentile) > cs.SLAMillis {
				violated++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(violated) / float64(total)
}

// recoveryMinutes is the time from the failure until the first of two
// consecutive whole windows in which every class meets its SLA. A run that
// never recovers reports the measured interval's length plus one minute,
// so that lower is always better.
func recoveryMinutes(app *services.App, s services.AppSpec, failAt, end sim.Time) float64 {
	start := (failAt + sim.Minute - 1) / sim.Minute * sim.Minute
	clean := 0
	for w := start; w+sim.Minute <= end; w += sim.Minute {
		ok, seen := true, false
		for _, cs := range s.Classes {
			rec := app.E2E.Class(cs.Name)
			if rec == nil || rec.Count(w, w+sim.Minute) == 0 {
				continue
			}
			seen = true
			if rec.PercentileBetween(w, w+sim.Minute, cs.SLAPercentile) > cs.SLAMillis {
				ok = false
			}
		}
		if !ok || !seen {
			clean = 0
			continue
		}
		if clean++; clean == 2 {
			return (w - sim.Minute - failAt).Seconds() / 60
		}
	}
	return (end-warm).Seconds()/60 + 1
}

// e2eRecorded counts the end-to-end latency samples the app recorded.
func e2eRecorded(app *services.App, s services.AppSpec, end sim.Time) int {
	n := 0
	for _, cs := range s.Classes {
		if rec := app.E2E.Class(cs.Name); rec != nil {
			n += rec.Count(0, end+sim.Minute)
		}
	}
	return n
}

func sortedServiceNames(s services.AppSpec) []string {
	names := make([]string, 0, len(s.Services))
	for _, ss := range s.Services {
		names = append(names, ss.Name)
	}
	sort.Strings(names)
	return names
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
