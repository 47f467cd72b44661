package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/faults"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// ResilienceCell is one (system, scenario) deployment outcome of the Fig. F1
// recovery experiment: the social-network app on the paper testbed, with and
// without a mid-run node failure.
type ResilienceCell struct {
	System   string
	Scenario string // "no-fault", "node-fail"
	Outcome
}

// ResilienceResult reproduces Fig. F1 — the chaos/recovery study, an axis the
// paper's evaluation never exercises.
type ResilienceResult struct {
	Cells   []ResilienceCell
	FailAt  sim.Time
	FailFor sim.Time
}

// ResilienceSystems lists the systems compared under fault injection: Ursa
// against the two threshold autoscalers (the ML baselines have no story for
// sudden capacity loss and would only add training cost to the grid).
func ResilienceSystems() []string { return []string{"ursa", "auto-a", "auto-b"} }

// resiliencePolicy is the client-side retry policy every Fig. F1 cell runs
// with — including the no-fault ones, so the comparison isolates the fault
// itself rather than the cost of the resilience machinery.
func resiliencePolicy() services.ResiliencePolicy {
	return services.ResiliencePolicy{
		TimeoutMs:     500,
		MaxRetries:    3,
		BackoffBaseMs: 20,
		BackoffMaxMs:  500,
		JitterFrac:    0.25,
	}
}

// RunResilience executes the Fig. F1 grid: each system runs the
// social-network app on the PaperTestbed cluster under constant load, once
// undisturbed and once with the largest node (node-7, 88 CPUs) failing a
// third of the way in and recovering a quarter-run later. Cells run
// concurrently up to Options.Parallelism and merge in canonical order.
func RunResilience(opts Options) ResilienceResult {
	opts.defaults()
	dur := opts.scaleTime(30*sim.Minute, 10*sim.Minute)
	failAt := Warmup + dur/3
	failFor := dur / 4

	c, _ := AppCaseByName("social-network")
	scenarios := []string{"no-fault", "node-fail"}
	type cellJob struct{ system, scen string }
	var jobs []cellJob
	for _, s := range ResilienceSystems() {
		for _, scen := range scenarios {
			jobs = append(jobs, cellJob{s, scen})
		}
	}

	policy := resiliencePolicy()
	cells := make([]ResilienceCell, len(jobs))
	opts.forEach(len(jobs), func(i int) {
		j := jobs[i]
		opts.logf("figf1: %s / %s", j.system, j.scen)
		s := opts.scenario(c, j.system, dur)
		s.Placement, s.Resilience = Testbed, &policy
		if j.scen == "node-fail" {
			s.Faults.NodeFails = []faults.NodeFail{{Node: "node-7", At: failAt, For: failFor}}
		}
		cells[i] = ResilienceCell{System: j.system, Scenario: j.scen, Outcome: opts.mustRun(s)}
	})
	return ResilienceResult{Cells: cells, FailAt: failAt, FailFor: failFor}
}

// Cell finds a specific result.
func (r ResilienceResult) Cell(system, scenario string) (ResilienceCell, bool) {
	for _, c := range r.Cells {
		if c.System == system && c.Scenario == scenario {
			return c, true
		}
	}
	return ResilienceCell{}, false
}

// Render prints the Fig. F1 table.
func (r ResilienceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.F1 — resilience under a node failure (node-7 down %v→%v)\n",
		r.FailAt, r.FailAt+r.FailFor)
	fmt.Fprintf(&b, "%-8s %-10s %8s %8s %9s %8s %8s %8s %8s %8s %8s\n",
		"system", "scenario", "viol%", "avail%", "recovery", "avgCPU", "retries", "errors", "evicted", "unsched", "backlog")
	for _, c := range r.Cells {
		rec := "-"
		switch {
		case c.Scenario == "no-fault":
		case c.RecoveryMin < 0:
			rec = "never"
		default:
			rec = fmt.Sprintf("%.0f min", c.RecoveryMin)
		}
		fmt.Fprintf(&b, "%-8s %-10s %7.1f%% %7.2f%% %9s %8.1f %8.0f %8.0f %8d %8d %8d\n",
			c.System, c.Scenario, c.ViolationRate*100, c.Availability*100, rec,
			c.AvgCPUs, c.Retries, c.Errors, c.Evicted, c.Unschedulable, c.Backlog)
	}
	return b.String()
}
