package spec

import (
	"fmt"
	"math"
	"math/rand"
)

// Fixed shape of every generated topology.
const (
	// genMinDepth is the fewest layers of the service DAG, frontend
	// included.
	genMinDepth = 2
	// genMaxWidth bounds services per non-frontend layer.
	genMaxWidth = 3
	// genMaxFanOut bounds outbound calls per handler.
	genMaxFanOut = 2
	// genRPCShare and genEventShare set the call-edge kind mix; the
	// remainder is mq.
	genRPCShare, genEventShare = 0.6, 0.2
	// genMaxClasses bounds the interactive request classes.
	genMaxClasses = 2
	// genAsyncProb is the probability of adding a spawned async worker
	// class.
	genAsyncProb = 0.35
)

// GenParams parameterises the seeded random-topology generator. The zero
// value of every bound selects the default noted on the field; Seed and Name
// are the caller's identity for the topology. Two calls with equal params
// produce byte-identical Files on any platform — the generator draws from a
// private rand.Rand in a fixed order and never consults global state.
type GenParams struct {
	// Name is the generated application's name (required).
	Name string
	// Seed drives every random draw.
	Seed int64
	// MaxDepth bounds the layers of the service DAG, frontend included
	// (default genMinDepth+2).
	MaxDepth int
	// TargetCores sizes the workload rate so the offered compute load is
	// roughly this many cores (default 8).
	TargetCores float64
	// SLAHeadroom, when > 0, scales the SLA target over the estimated mean
	// end-to-end latency. When unset, a headroom in [3.5, 6.5) is drawn per
	// class and applied to a percentile-aware *tail* estimate instead of the
	// mean — the mean is blind to service-time variability and queueing
	// delay, and SLAs drawn as small mean multiples land below the latency
	// range any allocation can reach (the deployment fails outright).
	SLAHeadroom float64
}

func (p *GenParams) defaults() {
	if p.MaxDepth < genMinDepth {
		p.MaxDepth = genMinDepth + 2
	}
	if p.TargetCores <= 0 {
		p.TargetCores = 8
	}
}

// Generate builds a random layered-DAG application spec: a frontend, 1..N
// interactive classes flowing through rpc services whose calls always target
// deeper layers (so call chains are acyclic by construction), an optional
// async worker fed by a Spawn, per-class SLAs derived from the estimated
// mean end-to-end latency, and a workload section sized to TargetCores. The
// returned File always passes Validate.
func Generate(p GenParams) (*File, error) {
	p.defaults()
	if p.Name == "" {
		return nil, fmt.Errorf("spec: GenParams.Name required")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &generator{p: p, rng: rng}
	f := g.build()
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("generated spec invalid (seed %d): %w", p.Seed, err)
	}
	return f, nil
}

type generator struct {
	p   GenParams
	rng *rand.Rand
	// layers[l] lists service indices (into file.Services) of layer l.
	layers [][]int
	file   File
}

func (g *generator) build() *File {
	p := g.p
	g.file = File{Version: Version, App: p.Name}
	depth := genMinDepth + g.rng.Intn(p.MaxDepth-genMinDepth+1)

	// Layer 0 is the single frontend; deeper layers are 1..genMaxWidth wide.
	g.addService("frontend", 0)
	for l := 1; l < depth; l++ {
		width := 1 + g.rng.Intn(genMaxWidth)
		for i := 0; i < width; i++ {
			g.addService(fmt.Sprintf("svc-%d-%d", l, i), l)
		}
	}

	// Interactive classes: independent flows from the frontend.
	classes := 1 + g.rng.Intn(genMaxClasses)
	for c := 0; c < classes; c++ {
		name := fmt.Sprintf("op-%c", 'a'+c)
		g.growFlow(0, 0, name)
		pct := 95.0
		if g.rng.Float64() < 0.5 {
			pct = 99.0
		}
		headroom := p.SLAHeadroom
		baseMs := g.estimateMean(0, name, map[string]bool{})
		if headroom <= 0 {
			// The mean estimate is tail-blind: per-step CV runs up to 0.6
			// and queueing delay compounds through the call chain, so upper
			// percentiles sit well above small mean multiples — and the MIP
			// certifies the SLA from *summed per-service tail bounds*, which
			// are heavier still. An SLA drawn too close to the mean is
			// infeasible at ANY allocation (the deployment fails outright
			// instead of being merely hard), so the default draw applies the
			// headroom to a percentile-aware tail estimate: p99 targets
			// inflate each step by more standard deviations than p95 ones,
			// and high-variability flows get proportionally more slack.
			headroom = 3.5 + 3*g.rng.Float64()
			z := 2.0
			if pct == 99 {
				z = 3.0
			}
			baseMs = g.estimateTail(0, name, map[string]bool{}, z)
		}
		g.file.Classes = append(g.file.Classes, Class{
			Name:  name,
			Entry: "frontend",
			SLA:   SLA{Percentile: pct, LatencyMs: roundMs(baseMs * headroom)},
		})
	}

	// Layer width is drawn before flows are grown, so some services may never
	// be targeted by any class; prune them rather than leave operation-less
	// services the validator (rightly) rejects.
	var kept []Service
	for i := range g.file.Services {
		if len(g.file.Services[i].Operations) > 0 {
			kept = append(kept, g.file.Services[i])
		}
	}
	g.file.Services = kept

	// Optionally hang an async worker class off the first interactive flow,
	// like the built-ins' ML and transcode tiers.
	if g.rng.Float64() < genAsyncProb {
		wi := len(g.file.Services)
		g.file.Services = append(g.file.Services, Service{
			Name:     "async-worker",
			Kind:     "worker",
			CPUs:     float64(int(2) << g.rng.Intn(2)), // 2 or 4
			Replicas: 1 + g.rng.Intn(3),
			Threads:  4 * (1 + g.rng.Intn(4)),
		})
		mean := 50 + 350*g.rng.Float64()
		cv := 0.3 + 0.3*g.rng.Float64()
		g.file.Services[wi].Operations = []Operation{{
			Name: "async-job",
			Steps: []Step{{
				Kind:     StepCompute,
				Duration: Duration{MeanMs: roundMs(mean)},
				CV:       roundMs(cv),
			}},
		}}
		first := &g.file.Services[0]
		op := &first.Operations[0]
		op.Steps = append(op.Steps, Step{Kind: StepSpawn, Service: "async-worker", Class: "async-job"})
		g.file.Classes = append(g.file.Classes, Class{
			Name:    "async-job",
			Entry:   "async-worker",
			Derived: true,
			SLA:     SLA{Percentile: 99, LatencyMs: roundMs(mean * 25)},
		})
	}

	// Workload: weights per interactive class, rate sized to TargetCores of
	// offered compute.
	w := &Workload{}
	var weights []float64
	totalW := 0.0
	for c := 0; c < classes; c++ {
		wgt := float64(1 + g.rng.Intn(10))
		weights = append(weights, wgt)
		totalW += wgt
	}
	costPerReq := 0.0
	for c := 0; c < classes; c++ {
		name := g.file.Classes[c].Name
		costPerReq += weights[c] / totalW * g.computeCost(0, name, map[string]bool{})
	}
	rate := p.TargetCores * 1000 / math.Max(costPerReq, 1)
	w.Rate = roundMs(rate)
	for c := 0; c < classes; c++ {
		w.Mix = append(w.Mix, MixEntry{Class: g.file.Classes[c].Name, Weight: weights[c]})
	}
	g.file.Workload = w
	return &g.file
}

func (g *generator) addService(name string, layer int) {
	for len(g.layers) <= layer {
		g.layers = append(g.layers, nil)
	}
	g.layers[layer] = append(g.layers[layer], len(g.file.Services))
	g.file.Services = append(g.file.Services, Service{
		Name:     name,
		Kind:     "rpc",
		CPUs:     float64(int(1) << g.rng.Intn(3)), // 1, 2 or 4
		Replicas: 1 + g.rng.Intn(2),
	})
}

// growFlow ensures service si implements class, generating its handler (and
// recursively its callees' handlers) if absent. Calls only ever target the
// next layer down, so chains are acyclic by construction.
func (g *generator) growFlow(si, layer int, class string) {
	svc := &g.file.Services[si]
	for i := range svc.Operations {
		if svc.Operations[i].Name == class {
			return
		}
	}
	// Reserve the operation slot before recursing: shared downstream targets
	// see it and stop.
	svc.Operations = append(svc.Operations, Operation{Name: class})
	opIdx := len(svc.Operations) - 1

	steps := []Step{g.computeStep(layer)}
	if layer+1 < len(g.layers) {
		next := g.layers[layer+1]
		fan := 1 + g.rng.Intn(min(genMaxFanOut, len(next)))
		targets := g.rng.Perm(len(next))[:fan]
		var calls []Step
		for _, t := range targets {
			ti := next[t]
			mode := g.pickMode()
			calls = append(calls, Step{Kind: StepCall, Service: g.file.Services[ti].Name, Mode: mode})
			g.growFlow(ti, layer+1, class)
		}
		if len(calls) > 1 && g.rng.Float64() < 0.5 {
			par := Step{Kind: StepPar}
			for _, c := range calls {
				par.Branches = append(par.Branches, Branch{Steps: []Step{c}})
			}
			steps = append(steps, par)
		} else {
			steps = append(steps, calls...)
		}
	}
	// Re-take the pointer: recursion may have appended operations to this
	// same service (sibling classes) and moved the backing array.
	g.file.Services[si].Operations[opIdx].Steps = steps
}

func (g *generator) computeStep(layer int) Step {
	// Deeper layers do the heavier lifting (storage, models), like the
	// benchmark apps.
	base := 1 + 6*float64(layer)
	mean := base + (4*base)*g.rng.Float64()
	cv := 0.2 + 0.4*g.rng.Float64()
	return Step{
		Kind:     StepCompute,
		Duration: Duration{MeanMs: roundMs(mean)},
		CV:       roundMs(cv),
	}
}

func (g *generator) pickMode() string {
	u := g.rng.Float64()
	switch {
	case u < genRPCShare:
		return "nested-rpc"
	case u < genRPCShare+genEventShare:
		return "event-rpc"
	default:
		return "mq"
	}
}

// estimateMean walks a class flow and returns the rough mean end-to-end
// latency: compute means summed, Par taking its slowest branch, every call
// mode counted (mq deliveries are part of the same measured job), plus a
// per-hop ingress allowance.
func (g *generator) estimateMean(si int, class string, visiting map[string]bool) float64 {
	svc := &g.file.Services[si]
	key := svc.Name + "/" + class
	if visiting[key] {
		return 0
	}
	visiting[key] = true
	defer delete(visiting, key)
	for i := range svc.Operations {
		if svc.Operations[i].Name != class {
			continue
		}
		return g.stepsMean(svc.Operations[i].Steps, class, visiting)
	}
	return 0
}

func (g *generator) stepsMean(steps []Step, class string, visiting map[string]bool) float64 {
	total := 0.0
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case StepCompute:
			total += st.Duration.MeanMs
		case StepCall:
			total += 1 // ingress + queueing allowance per hop
			total += g.estimateMean(g.serviceIndex(st.Service), effectiveClass(class, st.Class), visiting)
		case StepSpawn:
			// Spawned jobs are measured separately; no e2e contribution.
		case StepPar:
			worst := 0.0
			for bi := range st.Branches {
				if m := g.stepsMean(st.Branches[bi].Steps, class, visiting); m > worst {
					worst = m
				}
			}
			total += worst
		}
	}
	return total
}

// estimateTail is estimateMean's percentile-aware companion: compute steps
// contribute mean·(1 + z·cv) — z standard deviations above the mean — and
// each call hop a (1+z) ms ingress/queueing allowance. z encodes the SLA
// percentile (≈2 for p95, ≈3 for p99), so tighter percentiles and
// higher-variability flows both push the SLA target up. Still a walk, not a
// queueing model: the headroom multiplier absorbs the rest.
func (g *generator) estimateTail(si int, class string, visiting map[string]bool, z float64) float64 {
	svc := &g.file.Services[si]
	key := svc.Name + "/" + class
	if visiting[key] {
		return 0
	}
	visiting[key] = true
	defer delete(visiting, key)
	for i := range svc.Operations {
		if svc.Operations[i].Name != class {
			continue
		}
		return g.stepsTail(svc.Operations[i].Steps, class, visiting, z)
	}
	return 0
}

func (g *generator) stepsTail(steps []Step, class string, visiting map[string]bool, z float64) float64 {
	total := 0.0
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case StepCompute:
			total += st.Duration.MeanMs * (1 + z*st.CV)
		case StepCall:
			total += 1 + z
			total += g.estimateTail(g.serviceIndex(st.Service), effectiveClass(class, st.Class), visiting, z)
		case StepSpawn:
			// Spawned jobs are measured separately; no e2e contribution.
		case StepPar:
			worst := 0.0
			for bi := range st.Branches {
				if m := g.stepsTail(st.Branches[bi].Steps, class, visiting, z); m > worst {
					worst = m
				}
			}
			total += worst
		}
	}
	return total
}

// computeCost sums compute milliseconds across ALL branches of a class flow
// — the per-request CPU demand used to size the workload rate.
func (g *generator) computeCost(si int, class string, visiting map[string]bool) float64 {
	svc := &g.file.Services[si]
	key := svc.Name + "/" + class
	if visiting[key] {
		return 0
	}
	visiting[key] = true
	defer delete(visiting, key)
	for i := range svc.Operations {
		if svc.Operations[i].Name != class {
			continue
		}
		return g.stepsCost(svc.Operations[i].Steps, class, visiting)
	}
	return 0
}

func (g *generator) stepsCost(steps []Step, class string, visiting map[string]bool) float64 {
	total := 0.0
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case StepCompute:
			total += st.Duration.MeanMs
		case StepCall:
			total += 0.4 // ingress admission cost, both ends
			total += g.computeCost(g.serviceIndex(st.Service), effectiveClass(class, st.Class), visiting)
		case StepSpawn:
			total += g.computeCost(g.serviceIndex(st.Service), st.Class, visiting)
		case StepPar:
			for bi := range st.Branches {
				total += g.stepsCost(st.Branches[bi].Steps, class, visiting)
			}
		}
	}
	return total
}

func (g *generator) serviceIndex(name string) int {
	for i := range g.file.Services {
		if g.file.Services[i].Name == name {
			return i
		}
	}
	panic("spec: generator produced a dangling service reference: " + name)
}

func effectiveClass(current, override string) string {
	if override != "" {
		return override
	}
	return current
}

// roundMs trims a drawn float to 3 decimals so generated files stay readable
// and round-trip exactly through the decimal duration syntax.
func roundMs(v float64) float64 {
	return math.Round(v*1000) / 1000
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
