package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes its own executable for every cold run.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// summary is the last line of the benchmark's output.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, workload string, traced bool) (string, summary, int) {
	t.Helper()
	w, _ := workloadByName(workload)
	var out bytes.Buffer
	code := orchestrate(&out, benchConfig{w: w, seed: 7, seconds: 0.1, traced: traced, out: t.TempDir(), tiny: true})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out.String())
	}
	return out.String(), s, code
}

// checkPrinted asserts that every metric appears in the report with its
// unit and, exactly, in the JSON summary.
func checkPrinted(t *testing.T, text string, s summary, defs []metricDef) {
	t.Helper()
	if len(s.Metrics) != len(defs) {
		t.Errorf("summary has %d metrics, want %d", len(s.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := s.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("summary metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
		found := false
		for _, line := range strings.Split(text, "\n") {
			f := strings.Fields(line)
			found = found || (len(f) >= 4 && f[1] == m.Name && f[3] == m.Unit)
		}
		if !found {
			t.Errorf("report has no line for %s with unit %s", m.Name, m.Unit)
		}
	}
}

func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	text, s, code := runBench(t, "sim-10x", false)
	if code != 0 || !s.Correct || s.Attempted < minRuns || s.Failed != 0 {
		t.Fatalf("untraced run: exit %d, summary %+v\n%s", code, s, text)
	}
	checkPrinted(t, text, s, endToEnd)
	for _, m := range modelled {
		if !strings.Contains(text, " "+m.Name+" ") {
			t.Errorf("report lacks modelled metric %s", m.Name)
		}
	}
	if s.Metrics["wall_s"].Value <= 0 || s.Metrics["setup_s"].Value <= 0 {
		t.Errorf("host times not measured: %+v", s.Metrics)
	}

	text, s, code = runBench(t, "firm-burst", true)
	if code != 0 || !s.Correct {
		t.Fatalf("traced run: exit %d, summary %+v\n%s", code, s, text)
	}
	checkPrinted(t, text, s, perLayer)
	if !strings.Contains(text, "self-time  setup.pretrain") {
		t.Errorf("traced report lacks the self-time split:\n%s", text)
	}
}

// TestTracedUrsaMatchesHarness runs Ursa traced and untraced: the traced
// run re-drives profiling and exploration service by service, and the
// orchestrator fails the invocation unless both produce the same profiles
// digest and the same modelled outputs.
func TestTracedUrsaMatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the social network twice")
	}
	text, s, code := runBench(t, "ursa-diurnal", true)
	if code != 0 || !s.Correct || s.Attempted != 2 {
		t.Fatalf("exit %d, summary %+v\n%s", code, s, text)
	}
	if s.Metrics["core.explore_samples"].Value <= 0 || s.Metrics["core.profile_calls"].Value <= 0 {
		t.Errorf("traced Ursa set-up did no work: %+v", s.Metrics)
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present: ", err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestGateTripsOnPerturbedFingerprint(t *testing.T) {
	for _, w := range workloads {
		stored, ok, err := storedFingerprint(w.Name)
		if err != nil || !ok {
			t.Fatalf("%s: stored fingerprint: ok=%v err=%v", w.Name, ok, err)
		}
		if bad := invariants(w, stored); len(bad) > 0 {
			t.Errorf("%s: stored fingerprint breaks invariants: %v", w.Name, bad)
		}
		perturbed := stored
		perturbed.Events++
		runs := []*childRun{{res: &runResult{Workload: w.Name, Seed: defaultSeed, Print: perturbed}, wallS: 1}}
		cfg := benchConfig{w: w, seed: defaultSeed, seconds: 1}
		checkRuns(cfg, runs)
		var out bytes.Buffer
		if code := report(&out, cfg, runs, refNominal); code == 0 || !strings.Contains(out.String(), "fingerprint sim_events") {
			t.Errorf("%s: perturbed sim_events passed the gate (exit %d):\n%s", w.Name, code, out.String())
		}
	}

	ursa, _ := workloadByName("region-failover")
	fp, _, _ := storedFingerprint(ursa.Name)
	leak := fp
	leak.Completed = leak.Injected + 1
	skipped := fp
	skipped.ExploreSamples = 0
	for name, bad := range map[string]fingerprint{"conservation": leak, "explored": skipped} {
		if got := invariants(ursa, bad); len(got) == 0 {
			t.Errorf("invariants accept a fingerprint with broken %s", name)
		}
	}
}

// TestSecondInProcessRunRefused pins why every run is a fresh process: the
// harness memoises set-up per process, so a second in-process run would
// report a set-up it never paid for. runOnce refuses it instead.
func TestSecondInProcessRunRefused(t *testing.T) {
	w, _ := workloadByName("sim-10x")
	if _, err := runOnce(w.tiny(), 3, false); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := runOnce(w.tiny(), 3, false); err != errSecondRun {
		t.Fatalf("second in-process run: err = %v, want errSecondRun", err)
	}
}
