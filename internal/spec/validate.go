package spec

import (
	"fmt"
	"strings"
)

// Upper bounds on a service's counts and on the offered load. Every replica
// and every in-flight request is simulated state, so an unbounded count or
// rate lets a spec file exhaust memory. All sit far above every checked-in
// spec and generator (at most 16 replicas; threads up to the rpc default of
// 4096; rates up to 200 checked in and at most 8000 generated).
const (
	maxReplicas = 4096    // replicas and max_replicas
	maxSlots    = 1 << 20 // threads and daemons per replica
	maxRate     = 1e5     // workload.rate, requests per second
)

// Validate checks a decoded File semantically and returns the first problem
// found as a field-path *Error: version support, unique service/class/
// operation names, referential integrity of every call/spawn edge, operation
// coverage for every effective class, acyclicity of call chains, SLA sanity,
// and workload mix consistency. Files returned by Parse are already
// validated.
func (f *File) Validate() error {
	if f.Version != Version {
		return errf("version", "unsupported spec version %d (this build reads version %d)", f.Version, Version)
	}
	if f.App == "" {
		return errf("app", "must not be empty")
	}
	if len(f.Services) == 0 {
		return errf("services", "at least one service required")
	}
	regionByName := map[string]bool{}
	for i := range f.Regions {
		r := &f.Regions[i]
		if regionByName[r.Name] {
			return errf(fmt.Sprintf("regions[%d].name", i), "duplicate region %q", r.Name)
		}
		regionByName[r.Name] = true
		path := "regions." + r.Name
		if len(r.Nodes) == 0 {
			return errf(path+".nodes", "at least one node required")
		}
		for j, cap := range r.Nodes {
			if cap <= 0 {
				return errf(fmt.Sprintf("%s.nodes[%d]", path, j), "capacity must be positive")
			}
		}
	}
	for i := range f.Regions {
		r := &f.Regions[i]
		path := "regions." + r.Name
		for _, e := range r.WAN {
			if e.To == r.Name {
				return errf(path+".wan."+e.To, "region cannot link to itself")
			}
			if !regionByName[e.To] {
				return errf(path+".wan."+e.To, "unknown region %q", e.To)
			}
			if e.LatencyMs < 0 {
				return errf(path+".wan."+e.To, "latency must not be negative")
			}
		}
	}
	svcByName := map[string]*Service{}
	for i := range f.Services {
		s := &f.Services[i]
		if _, dup := svcByName[s.Name]; dup {
			return errf(fmt.Sprintf("services[%d].name", i), "duplicate service %q", s.Name)
		}
		svcByName[s.Name] = s
		path := "services." + s.Name
		if s.Kind != "rpc" && s.Kind != "worker" {
			return errf(path+".kind", "unknown kind %q (want rpc|worker)", s.Kind)
		}
		if s.CPUs < 0 {
			return errf(path+".cpus", "must not be negative")
		}
		for _, c := range []struct {
			field  string
			n, max int
		}{
			{"replicas", s.Replicas, maxReplicas},
			{"max_replicas", s.MaxReplicas, maxReplicas},
			{"threads", s.Threads, maxSlots},
			{"daemons", s.Daemons, maxSlots},
		} {
			if c.n < 0 {
				return errf(path+"."+c.field, "must not be negative")
			}
			if c.n > c.max {
				return errf(path+"."+c.field, "must be at most %d", c.max)
			}
		}
		if s.StartupDelaySec < 0 {
			return errf(path+".startup_delay", "must not be negative")
		}
		if s.Region != "" && !regionByName[s.Region] {
			return errf(path+".region", "unknown region %q", s.Region)
		}
		if s.Ingress != nil {
			if s.Ingress.CostMs < 0 {
				return errf(path+".ingress.cost", "must not be negative")
			}
			if s.Ingress.Window < 0 {
				return errf(path+".ingress.window", "must not be negative")
			}
		}
		if len(s.Operations) == 0 {
			return errf(path+".operations", "at least one operation required")
		}
		for oi := range s.Operations {
			op := &s.Operations[oi]
			opPath := path + ".operations." + op.Name
			if len(op.Steps) == 0 {
				return errf(opPath+".steps", "at least one step required")
			}
			if err := checkStepShapes(op.Steps, opPath+".steps"); err != nil {
				return err
			}
		}
	}
	classByName := map[string]*Class{}
	for i := range f.Classes {
		c := &f.Classes[i]
		if _, dup := classByName[c.Name]; dup {
			return errf(fmt.Sprintf("classes[%d].name", i), "duplicate class %q", c.Name)
		}
		classByName[c.Name] = c
		path := "classes." + c.Name
		if c.Entry == "" && !c.Derived {
			return errf(path+".entry", "required for non-derived classes")
		}
		if c.Entry != "" {
			if _, ok := svcByName[c.Entry]; !ok {
				return errf(path+".entry", "unknown service %q", c.Entry)
			}
		}
		if c.Priority < 0 {
			return errf(path+".priority", "must not be negative")
		}
		if c.SLA.Percentile <= 0 || c.SLA.Percentile > 100 {
			return errf(path+".sla.percentile", "must be in (0, 100]")
		}
		if c.SLA.LatencyMs <= 0 {
			return errf(path+".sla.latency", "must be positive")
		}
	}
	if len(f.Classes) == 0 {
		return errf("classes", "at least one class required")
	}
	// Walk every class flow from its entry: referential integrity, operation
	// coverage and call-chain acyclicity.
	w := &flowWalker{file: f, svcs: svcByName, classes: classByName,
		onStack: map[string]bool{}, done: map[string]bool{}}
	for i := range f.Classes {
		c := &f.Classes[i]
		if c.Entry == "" {
			continue
		}
		if err := w.walk(c.Entry, c.Name, "classes."+c.Name+".entry"); err != nil {
			return err
		}
	}
	if f.Workload != nil {
		if f.Workload.Rate < 0 {
			return errf("workload.rate", "must not be negative")
		}
		if !(f.Workload.Rate <= maxRate) {
			return errf("workload.rate", "must be at most %g", maxRate)
		}
		total := 0.0
		for _, e := range f.Workload.Mix {
			at := "workload.mix." + e.Class
			c, ok := classByName[e.Class]
			if !ok {
				return errf(at, "unknown class %q", e.Class)
			}
			if c.Derived {
				return errf(at, "derived class %q cannot receive client load", e.Class)
			}
			if e.Weight < 0 {
				return errf(at, "weight must not be negative")
			}
			total += e.Weight
		}
		if len(f.Workload.Mix) > 0 && total <= 0 {
			return errf("workload.mix", "mix has no positive weights")
		}
	}
	return nil
}

// checkStepShapes validates step-local invariants (compute means, nested
// branches); cross-service references are the flow walker's job.
func checkStepShapes(steps []Step, path string) *Error {
	for i := range steps {
		st := &steps[i]
		at := fmt.Sprintf("%s[%d]", path, i)
		switch st.Kind {
		case StepCompute:
			if st.Duration.MeanMs <= 0 {
				return errf(at+".compute.duration", "must be positive")
			}
		case StepCall:
			if st.ErrorRate < 0 || st.ErrorRate > 1 {
				return errf(at+".call.error_rate", "must be in [0, 1]")
			}
		case StepPar:
			if len(st.Branches) == 0 {
				return errf(at+".par.branches", "at least one branch required")
			}
			for bi := range st.Branches {
				if err := checkStepShapes(st.Branches[bi].Steps,
					fmt.Sprintf("%s.par.branches[%d].steps", at, bi)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// flowWalker performs a DFS over (service, class) flows. onStack detects
// cyclic call chains — a cycle means a request could recurse forever, which
// the simulator (and any real deployment) cannot execute. done memoises
// fully-verified flows so shared subtrees are walked once.
type flowWalker struct {
	file    *File
	svcs    map[string]*Service
	classes map[string]*Class
	onStack map[string]bool
	done    map[string]bool
	stack   []string // "service/class" frames, for the cycle message
}

func (w *flowWalker) walk(svcName, class, at string) *Error {
	key := svcName + "/" + class
	if w.onStack[key] {
		return errf(at, "cyclic call chain: %s", w.cyclePath(key))
	}
	if w.done[key] {
		return nil
	}
	svc := w.svcs[svcName]
	var op *Operation
	for i := range svc.Operations {
		if svc.Operations[i].Name == class {
			op = &svc.Operations[i]
			break
		}
	}
	if op == nil {
		return errf(at, "service %q has no operation %q", svcName, class)
	}
	w.onStack[key] = true
	w.stack = append(w.stack, key)
	err := w.walkSteps(op.Steps, svcName, class,
		"services."+svcName+".operations."+class+".steps")
	w.stack = w.stack[:len(w.stack)-1]
	delete(w.onStack, key)
	if err != nil {
		return err
	}
	w.done[key] = true
	return nil
}

func (w *flowWalker) walkSteps(steps []Step, svcName, class, path string) *Error {
	for i := range steps {
		st := &steps[i]
		at := fmt.Sprintf("%s[%d]", path, i)
		switch st.Kind {
		case StepCall:
			if _, ok := w.svcs[st.Service]; !ok {
				return errf(at+".call.service", "unknown service %q", st.Service)
			}
			cls := class
			if st.Class != "" {
				if _, ok := w.classes[st.Class]; !ok {
					return errf(at+".call.class", "unknown class %q", st.Class)
				}
				cls = st.Class
			}
			if err := w.walk(st.Service, cls, at+".call"); err != nil {
				return err
			}
		case StepSpawn:
			if _, ok := w.svcs[st.Service]; !ok {
				return errf(at+".spawn.service", "unknown service %q", st.Service)
			}
			if _, ok := w.classes[st.Class]; !ok {
				return errf(at+".spawn.class", "unknown class %q", st.Class)
			}
			if err := w.walk(st.Service, st.Class, at+".spawn"); err != nil {
				return err
			}
		case StepPar:
			for bi := range st.Branches {
				if err := w.walkSteps(st.Branches[bi].Steps, svcName, class,
					fmt.Sprintf("%s.par.branches[%d].steps", at, bi)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// cyclePath renders the chain from the first occurrence of key to the top of
// the stack, closing back on key.
func (w *flowWalker) cyclePath(key string) string {
	start := 0
	for i, k := range w.stack {
		if k == key {
			start = i
			break
		}
	}
	parts := append(append([]string{}, w.stack[start:]...), key)
	return strings.Join(parts, " -> ")
}
