package workload

import "ursa/internal/sim"

// This file keeps the original one-timer-per-arrival generator as a test
// oracle: the batched path (Start → armNext/OnEvent) is pinned against it by
// TestBatchedMatchesLegacy, TestSetPatternMidBlock, TestStopMidBlock and
// TestBatchedArrivalAllocs. Tests start it with g.scheduleNext() in place of
// g.Start().

// scheduleNext is the retained one-timer-per-arrival reference path: one
// ExpFloat64 + one Float64 + two closures per arrival. It is the ground truth
// the batched path is pinned against.
func (g *Generator) scheduleNext() {
	if g.stopped {
		return
	}
	rate := g.pattern.RPS(g.eng.Now())
	if rate <= 0 {
		// Idle: re-check for a live rate once a second.
		g.eng.Schedule(sim.Second, g.scheduleNext)
		return
	}
	gap := sim.Seconds2Time(g.rng.ExpFloat64() / rate)
	g.eng.Schedule(gap, func() {
		if g.stopped {
			return
		}
		class := g.pick()
		g.Injected[class]++
		g.app.Inject(class)
		g.scheduleNext()
	})
}

func (g *Generator) pick() string {
	return g.pickFrom(g.rng.Float64())
}
