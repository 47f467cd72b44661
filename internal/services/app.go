package services

import (
	"fmt"
	"math/rand"
	"sort"

	"ursa/internal/cluster"
	"ursa/internal/metrics"
	"ursa/internal/sim"
	"ursa/internal/trace"
)

// App is a deployed application: every service instantiated on one engine,
// end-to-end latency accounting, and a per-window metrics sampler. It is the
// object resource managers (Ursa and the baselines) operate on.
type App struct {
	Eng  *sim.Engine
	Spec AppSpec

	services map[string]*Service
	// ordered holds services in spec order. Aggregations iterate this, not
	// the map: float sums depend on addition order, and randomized map
	// iteration would make totals differ by an ulp from run to run.
	ordered []*Service
	window  sim.Time

	// Cluster, when non-nil, gates replica placement on real node
	// capacity. UnschedulableEvents counts placements that failed.
	Cluster             *cluster.Cluster
	UnschedulableEvents int

	// Placer, when non-nil, overrides Cluster.Place for new replicas — the
	// hook a geo-topology uses to pin replicas to their home region and spill
	// when it is capacity-short. Only consulted when Cluster is also set.
	Placer Placer

	// Tracer, when non-nil, samples jobs and records per-service spans.
	Tracer *trace.Tracer

	// Net, when non-nil, intercepts inter-service RPC delivery (the fault
	// injector's latency/drop hook). Set before injecting load.
	Net NetInjector
	// OnEviction, when non-nil, fires after replicas are crash-evicted
	// (node failure or replica crash) so a manager can re-solve and
	// re-place the lost capacity.
	OnEviction func([]Eviction)

	// E2E records end-to-end job latency (ms) per request class.
	E2E *metrics.LatencyRecorder
	// InjectedJobs / completedJobs / failedJobs count job starts,
	// completions, and terminal failures.
	InjectedJobs  int
	completedJobs int
	failedJobs    int

	res    *ResiliencePolicy
	resRNG *rand.Rand
	errRNG *rand.Rand

	telemetry TelemetryConfig

	// framePool / reqPool recycle step frames and requests on the fused
	// execution path (frame.go). Per-app (= per-engine), so parallel
	// experiment runs never share them.
	framePool []*frame
	reqPool   []*Request
}

// Placer chooses a node for a new replica of the named service. Implementors
// must allocate on the app's bound cluster (the returned placement is released
// through it); returning an error leaves the service at its current size and
// counts as an unschedulable event.
type Placer interface {
	PlaceReplica(service string, cpus float64) (cluster.Placement, error)
}

// Eviction records replicas one service lost in a crash event.
type Eviction struct {
	Service  string
	Replicas int
}

// NewApp validates the spec and deploys the application with its initial
// replica counts. Metrics are sampled once per metrics window (1 simulated
// minute, matching the paper's sampling frequency).
func NewApp(eng *sim.Engine, spec AppSpec) (*App, error) {
	return NewAppWindow(eng, spec, metrics.DefaultWindow)
}

// NewAppOnCluster deploys an application whose replicas are placed on (and
// bounded by) a physical cluster.
func NewAppOnCluster(eng *sim.Engine, spec AppSpec, cl *cluster.Cluster) (*App, error) {
	return newAppPlaced(eng, spec, metrics.DefaultWindow, cl, TelemetryConfig{}, nil)
}

// NewAppOnClusterPlaced is NewAppOnCluster with a replica placer installed
// before the initial replicas deploy, so deployment-time placement goes
// through it too (a region map pins even the first replica of every service
// to its home region).
func NewAppOnClusterPlaced(eng *sim.Engine, spec AppSpec, cl *cluster.Cluster, p Placer) (*App, error) {
	return newAppPlaced(eng, spec, metrics.DefaultWindow, cl, TelemetryConfig{}, p)
}

// NewAppWindow is NewApp with a custom metrics window. Exploration and
// profiling harnesses use finer windows so their sampling cadence and the
// metric buckets stay aligned.
func NewAppWindow(eng *sim.Engine, spec AppSpec, window sim.Time) (*App, error) {
	return newAppPlaced(eng, spec, window, nil, TelemetryConfig{}, nil)
}

func newAppPlaced(eng *sim.Engine, spec AppSpec, window sim.Time, cl *cluster.Cluster, tc TelemetryConfig, p Placer) (*App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		window = metrics.DefaultWindow
	}
	a := &App{
		Eng:       eng,
		Spec:      spec,
		services:  map[string]*Service{},
		window:    window,
		Cluster:   cl,
		Placer:    p,
		telemetry: tc,
	}
	a.E2E = a.newLatencyRecorder()
	for _, ss := range spec.Services {
		s := newService(a, ss)
		a.services[ss.Name] = s
		a.ordered = append(a.ordered, s)
	}
	eng.Every(a.window, a.sampleMetrics)
	return a, nil
}

// MustNewApp is NewApp, panicking on spec errors; for tests and fixed specs.
func MustNewApp(eng *sim.Engine, spec AppSpec) *App {
	a, err := NewApp(eng, spec)
	if err != nil {
		panic(err)
	}
	return a
}

// Window reports the metrics window size.
func (a *App) Window() sim.Time { return a.window }

// drawError samples one per-call error draw against prob. The stream is
// created on first use, so apps whose handlers carry no error rates never
// touch it — their event sequence is identical to pre-error-rate builds.
func (a *App) drawError(prob float64) bool {
	if a.errRNG == nil {
		a.errRNG = a.Eng.RNG("errors/" + a.Spec.Name)
	}
	return a.errRNG.Float64() < prob
}

// Service returns a service by name, or nil.
func (a *App) Service(name string) *Service { return a.services[name] }

func (a *App) mustService(name string) *Service {
	s := a.services[name]
	if s == nil {
		panic(fmt.Sprintf("services: unknown service %q", name))
	}
	return s
}

// ServiceNames lists services in sorted order.
func (a *App) ServiceNames() []string {
	out := make([]string, 0, len(a.services))
	for n := range a.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CompletedJobs reports how many jobs have fully finished.
func (a *App) CompletedJobs() int { return a.completedJobs }

// FailedJobs reports how many jobs terminally failed (a branch exhausted its
// RPC retries or died with a crashed replica).
func (a *App) FailedJobs() int { return a.failedJobs }

// Availability reports completed/(completed+failed) jobs; 1 before any job
// finishes.
func (a *App) Availability() float64 {
	total := a.completedJobs + a.failedJobs
	if total == 0 {
		return 1
	}
	return float64(a.completedJobs) / float64(total)
}

// EvictNode crash-evicts every replica resident on n, in spec order: work on
// their CPUs is dropped, in-flight requests fail, service-level queues
// survive, and placements are released. The OnEviction hook (if set) fires
// once with the per-service counts. Marking the node down first is the
// caller's job (fault injector).
func (a *App) EvictNode(n *cluster.Node) []Eviction {
	var evs []Eviction
	for _, s := range a.ordered {
		if released := s.evictOn(n); len(released) > 0 {
			evs = append(evs, Eviction{Service: s.Name(), Replicas: len(released)})
		}
	}
	a.notifyEviction(evs)
	return evs
}

func (a *App) notifyEviction(evs []Eviction) {
	if len(evs) > 0 && a.OnEviction != nil {
		a.OnEviction(evs)
	}
}

// RefreshNodeCPU re-derives the CPU limit of every replica resident on n (in
// spec order), after the node's interference factor changed.
func (a *App) RefreshNodeCPU(n *cluster.Node) {
	for _, s := range a.ordered {
		for _, r := range s.replicas {
			if r.placement.Node == n {
				r.applyCores()
			}
		}
		for _, r := range s.draining {
			if r.placement.Node == n {
				r.applyCores()
			}
		}
	}
}

// Inject starts one job of the given (non-derived) request class at its
// entry service and returns the job.
func (a *App) Inject(class string) *Job {
	cs := a.Spec.Class(class)
	if cs == nil {
		panic(fmt.Sprintf("services: unknown class %q", class))
	}
	if cs.Entry == "" {
		panic(fmt.Sprintf("services: class %q has no entry service", class))
	}
	return a.injectAt(a.mustService(cs.Entry), class)
}

// injectAt starts a new measured job of class at svc (used by Inject and by
// Spawn steps).
func (a *App) injectAt(svc *Service, class string) *Job {
	cs := a.Spec.Class(class)
	if cs == nil {
		panic(fmt.Sprintf("services: unknown class %q", class))
	}
	j := &Job{
		Class:    class,
		Priority: cs.Priority,
		Start:    a.Eng.Now(),
		app:      a,
	}
	if a.Tracer != nil {
		j.traceID = a.Tracer.StartJob(class, a.Eng.Now())
	}
	a.InjectedJobs++
	j.add()
	entry := a.getRequest()
	entry.Job = j
	entry.Class = class
	entry.Priority = j.Priority
	entry.doneBranch = true
	svc.Enqueue(entry)
	return j
}

// sampleMetrics stores one utilisation sample per service per window, then
// applies the retention policy (if any) so steady-state telemetry memory is
// O(retained windows) regardless of run length.
func (a *App) sampleMetrics() {
	now := a.Eng.Now()
	for _, s := range a.ordered {
		s.UtilSamples.Add(now-1, s.sampleUtilization())
	}
	if a.telemetry.Retention > 0 && now > a.telemetry.Retention {
		a.TrimTelemetry(now - a.telemetry.Retention)
	}
}

// TotalAllocatedCPUs sums currently allocated CPUs over all services.
func (a *App) TotalAllocatedCPUs() float64 {
	t := 0.0
	for _, s := range a.ordered {
		t += s.AllocatedCPUs()
	}
	return t
}

// AllocIntegralCPUSeconds reports ∫ allocated CPUs dt through now, summed
// over services — divide a delta by elapsed seconds for the Fig. 12 average
// allocation metric.
func (a *App) AllocIntegralCPUSeconds() float64 {
	now := a.Eng.Now()
	t := 0.0
	for _, s := range a.ordered {
		t += s.AllocGauge.IntegralUntil(now)
	}
	return t
}
