package spec

import "fmt"

// fleetSeedStride separates per-tenant generator seed streams; distinct from
// the corpus stride so a fleet never reuses corpus topologies for the same
// master seed.
const fleetSeedStride = 2000003

// FleetMember builds tenant i ("tenant-NN") of the multi-tenant fleet drawn
// from the seeded topology generator with master seed seed, sized for
// coexistence on one shared cluster. Member i depends only on (seed, i), so
// a 4-tenant fleet is a prefix of the 32-tenant fleet and sweeps over tenant
// counts share per-tenant work; two calls with equal arguments produce
// byte-identical files, like Generate. Members stay lean (depth ≤ 3, 4–8
// target cores, cycling by index): fleets scale by tenant count, not by
// per-tenant size. SLA headroom is fixed at a generous 6× — unlike the
// adversarial corpus, a fleet should mostly admit, so capacity (not SLA
// infeasibility) is what admission control arbitrates.
func FleetMember(seed int64, i int) (*File, error) {
	return Generate(GenParams{
		Name:        fmt.Sprintf("tenant-%02d", i),
		Seed:        seed*fleetSeedStride + int64(i),
		MaxDepth:    3,
		TargetCores: []float64{4, 6, 8}[i%3],
		SLAHeadroom: 6,
	})
}
