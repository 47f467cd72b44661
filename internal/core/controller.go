package core

import (
	"math"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
)

// ControllerConfig parameterises the resource controller (§V.4).
type ControllerConfig struct {
	// Interval is the control period (one metrics window by default).
	Interval sim.Time
	// LoadWindows is how many recent windows of load feed the t-test.
	LoadWindows int
	// Headroom divides the LPR threshold to keep a safety margin when
	// converting load to replicas (1.0 = none).
	Headroom float64
	// DisableTTest is an ablation switch: threshold crossings are acted on
	// immediately without Welch-t-test confirmation, exposing the
	// controller to load-noise flapping (§V.4 motivates the test).
	DisableTTest bool
}

// controllerAlpha is the one-sided t-test significance for threshold
// crossings.
const controllerAlpha = 0.05

func (c *ControllerConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = sim.Minute
	}
	if c.LoadWindows <= 0 {
		c.LoadWindows = 2
	}
	if c.Headroom <= 0 {
		c.Headroom = 0.9
	}
}

// Controller scales each service so that no request class's load per replica
// exceeds its LPR threshold. Crossings are confirmed with Welch's t-test
// against the load samples recorded at exploration time, absorbing noise.
type Controller struct {
	cfg ControllerConfig
	app *services.App
	sol *Solution

	// DecisionCount and DecisionSeconds accumulate wall-clock cost of the
	// decision path (control-plane latency, Table VI).
	DecisionCount   int
	DecisionSeconds float64
}

// NewController builds a controller from an optimization solution.
func NewController(app *services.App, sol *Solution, cfg ControllerConfig) *Controller {
	cfg.defaults()
	return &Controller{cfg: cfg, app: app, sol: sol}
}

// SetSolution swaps in recalculated thresholds (anomaly recovery path).
func (c *Controller) SetSolution(sol *Solution) { c.sol = sol }

// Tick runs one control decision for every managed service. It returns the
// replica changes applied (service → new count) for observability.
func (c *Controller) Tick() map[string]int {
	start := nowWall()
	changes := map[string]int{}
	now := c.app.Eng.Now()
	from := now - sim.Time(c.cfg.LoadWindows)*c.cfg.Interval
	if from < 0 {
		from = 0
	}
	// Sorted order: SetReplicas on cluster-bound apps places replicas as it
	// goes, so visit order must not depend on map iteration.
	for _, name := range sortedChoiceNames(c.sol) {
		choice := c.sol.Choices[name]
		svc := c.app.Service(name)
		if svc == nil {
			continue
		}
		cur := svc.Replicas()
		want := c.desiredReplicas(svc, choice, cur, from, now)
		if want != cur {
			svc.SetReplicas(want)
			changes[name] = want
		}
	}
	c.DecisionCount++
	c.DecisionSeconds += nowWall() - start
	return changes
}

// desiredReplicas computes max over classes of ceil(load / threshold), with
// t-test confirmation in both directions.
func (c *Controller) desiredReplicas(svc *services.Service, choice *Choice, cur int, from, to sim.Time) int {
	want := cur
	scaleUp := false
	needed := 1       // sized from the latest window (burst reaction)
	steadyNeeded := 1 // sized from the window mean (scale-down target)
	for class, thr := range choice.LPR {
		eff := thr * c.cfg.Headroom
		counter := svc.Arrivals[class]
		if counter == nil {
			continue
		}
		// Recent per-window service-level load samples.
		var loads []float64
		for w := from; w < to; w += c.cfg.Interval {
			loads = append(loads, counter.Rate(w, w+c.cfg.Interval))
		}
		if len(loads) == 0 {
			continue
		}
		// Size from the most recent window so sharp bursts translate into
		// replicas within one control period.
		latest := loads[len(loads)-1]
		n := int(math.Ceil(latest / eff))
		if n < 1 {
			n = 1
		}
		if n > needed {
			needed = n
		}
		if ns := int(math.Ceil(stats.Mean(loads) / eff)); ns > steadyNeeded {
			steadyNeeded = ns
		}
		// Scale-up confirmation: the per-replica load significantly
		// exceeds the recorded threshold samples (t-test), or exceeds it
		// so obviously that no statistics are needed (burst fast path).
		perReplica := make([]float64, len(loads))
		for i, l := range loads {
			perReplica[i] = l / float64(cur)
		}
		ref := choice.RateSamples[class]
		if len(ref) == 0 {
			ref = []float64{thr, thr}
		}
		refScaled := make([]float64, len(ref))
		for i, r := range ref {
			refScaled[i] = r * c.cfg.Headroom
		}
		if n > cur {
			if c.cfg.DisableTTest || latest/float64(cur) > 1.25*eff || stats.MeanGreater(perReplica, refScaled, controllerAlpha) {
				scaleUp = true
			}
		}
	}
	switch {
	case needed > cur:
		if scaleUp {
			want = needed
		}
	case steadyNeeded < cur && needed < cur:
		// Scale down only when the steady load would still fit with
		// confidence: the threshold at the reduced count must significantly
		// exceed the observed per-replica load at that reduced count.
		down := steadyNeeded
		confident := true
		for class, thr := range choice.LPR {
			counter := svc.Arrivals[class]
			if counter == nil {
				continue
			}
			var perReplica []float64
			for w := from; w < to; w += c.cfg.Interval {
				perReplica = append(perReplica, counter.Rate(w, w+c.cfg.Interval)/float64(down))
			}
			if len(perReplica) == 0 {
				continue
			}
			ref := choice.RateSamples[class]
			if len(ref) == 0 {
				ref = []float64{thr, thr}
			}
			refScaled := make([]float64, len(ref))
			for i, r := range ref {
				refScaled[i] = r * c.cfg.Headroom
			}
			if !c.cfg.DisableTTest && !stats.MeanGreater(refScaled, perReplica, controllerAlpha) {
				confident = false
				break
			}
		}
		if confident {
			want = down
		}
	}
	return want
}

// AvgDecisionMillis reports the mean wall-clock decision latency.
func (c *Controller) AvgDecisionMillis() float64 {
	if c.DecisionCount == 0 {
		return 0
	}
	return c.DecisionSeconds / float64(c.DecisionCount) * 1e3
}
