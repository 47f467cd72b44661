package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// scaledSocialNetwork is the paper's social-network app with every tier's
// replica count multiplied by k — the "one big run" the ROADMAP north star
// cares about, sized so the app digests k× the canonical 100 RPS.
func scaledSocialNetwork(k int) services.AppSpec {
	spec := topology.SocialNetwork()
	for i := range spec.Services {
		spec.Services[i].InitialReplicas *= k
		if spec.Services[i].MaxReplicas > 0 {
			spec.Services[i].MaxReplicas *= k
		}
	}
	return spec
}

// BenchmarkThroughput is the tracked single-run throughput headline: a
// 10×-scale social network at 1000 RPS, simulated for 2 minutes per
// iteration. It reports wall-clock events/sec and heap allocs per injected
// request for the batched-arrival + fused-frame path ("fused"), the number
// BENCH_throughput.json records.
func BenchmarkThroughput(b *testing.B) {
	const (
		scale   = 10
		rps     = 1000
		simTime = 2 * sim.Minute
	)
	b.Run("fused", func(b *testing.B) {
		var events uint64
		var jobs, allocs uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(int64(i) + 1)
			app := services.MustNewApp(eng, scaledSocialNetwork(scale))
			gen := workload.New(eng, app, workload.Constant{Value: rps}, topology.SocialNetworkMix())
			gen.Start()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			eng.RunUntil(simTime)
			runtime.ReadMemStats(&m1)
			events += eng.Fired()
			jobs += uint64(app.InjectedJobs)
			allocs += m1.Mallocs - m0.Mallocs
		}
		b.StopTimer()
		if jobs == 0 {
			b.Fatal("no jobs injected")
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(allocs)/float64(jobs), "allocs/req")
	})
}

// TestThroughputPathsPreserveFig2 is the experiment-level byte-identity pin
// for the batched-arrival + fused-frame fast paths: the full fig2
// backpressure run (all three call modes, CPU throttling mid-run) must render
// byte-identically to the retained reference paths, across ≥20 seeds and
// across Parallelism settings. The reference side is pinned as digests: the
// sha256 of each seed's Render() at Parallelism 1, captured with the
// closure-per-hop step interpreter and the one-timer-per-arrival generator
// (now the oracles in internal/services and internal/workload
// reference_test.go) in place of the fast paths.
func TestThroughputPathsPreserveFig2(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 3
	}
	if raceEnabled {
		// The identity property is deterministic; under race one seed is
		// enough to exercise the fused path (incl. Parallelism 4) with the
		// detector on while keeping the package inside the test timeout.
		seeds = 1
	}
	want := readSeedDigests(t, "testdata/fig2_seed_renders.sha256")
	for seed := int64(1); seed <= seeds; seed++ {
		fused := RunBackpressure(Options{Seed: seed, Parallelism: 1}).Render()
		fusedPar := RunBackpressure(Options{Seed: seed, Parallelism: 4}).Render()

		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fused))); got != want[seed] {
			t.Fatalf("seed %d: fast-path fig2 render diverges from reference (sha256 %s, want %s)", seed, got, want[seed])
		}
		if fused != fusedPar {
			t.Fatalf("seed %d: fig2 render differs across Parallelism 1 vs 4", seed)
		}
	}
}

// readSeedDigests parses a "seed sha256-hex" per line digest file.
func readSeedDigests(t *testing.T, path string) map[int64]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("digests missing: %v", err)
	}
	out := map[int64]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var seed int64
		var digest string
		if _, err := fmt.Sscan(line, &seed, &digest); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		out[seed] = digest
	}
	return out
}
