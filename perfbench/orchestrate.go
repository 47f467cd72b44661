package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json at the repository root declares the same names
// and units.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are what a user of the simulator waits for and pays: host time
// and host memory, measured with tracing off, and the modelled resource cost
// of the managed deployment.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_speed", "sim_s/s", "higher"},
	{"peak_rss_mib", "MiB", "lower"},
	{"cpu_cores", "cores", "lower"},
}

// hostUnbounded are host metrics of the untraced runs that are printed but
// not bounded: Ursa's mean decision time follows the cost of its full
// solves, which changes several-fold with the profiles each seed explores.
var hostUnbounded = []metricDef{
	{"decision_ms", "ms", "lower"},
}

// modelled are deterministic outputs of the modelled system that are
// printed and gated by the fingerprint but not bounded: each is exactly 0 on
// most runs.
var modelled = []metricDef{
	{"sla_violation_pct", "%", "lower"},
	{"failed_pct", "%", "lower"},
	{"recovery_min", "min", "lower"},
}

// perLayer come from the traced runs; see README.md for which end-to-end
// metric each should move on which workload.
var perLayer = []metricDef{
	{"spec.build_ms", "ms", "lower"},
	{"core.profile_s", "s", "lower"},
	{"core.profile_calls", "count", "lower"},
	{"core.explore_s", "s", "lower"},
	{"core.explore_samples", "count", "lower"},
	{"core.initial_solve_ms", "ms", "lower"},
	{"core.optimize_calls", "count", "lower"},
	{"core.fast_share", "ratio", "higher"},
	{"core.tick_calls", "count", "lower"},
	{"core.decision_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"services.jobs", "count", "higher"},
	{"services.allocs_per_job", "allocs/job", "lower"},
	{"services.bytes_per_job", "B/job", "lower"},
	{"services.rpc_retries", "count", "lower"},
	{"services.rpc_errors", "count", "lower"},
	{"metrics.footprint_mib", "MiB", "lower"},
	{"metrics.report_ms", "ms", "lower"},
	{"cluster.place_calls", "count", "lower"},
	{"cluster.unschedulable", "count", "lower"},
	{"region.spilled", "count", "lower"},
	{"region.wan_hops", "count", "lower"},
	{"region.evicted", "count", "lower"},
	{"baselines.pretrain_s", "s", "lower"},
	{"ml.train_iters", "count", "lower"},
	{"ml.train_share", "ratio", "lower"},
	{"runtime.setup_alloc_mib", "MiB", "lower"},
	{"runtime.setup_gc_cycles", "count", "lower"},
	{"runtime.deploy_alloc_mib", "MiB", "lower"},
	{"runtime.deploy_gc_cycles", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

// layerDetail are per-layer times that are printed but left out of the
// summary line: each is exactly 0 on the workloads that never call its
// layer, so it would read the same on every run there.
var layerDetail = []metricDef{
	{"core.profile_max_s", "s", "lower"},
	{"core.explore_max_s", "s", "lower"},
	{"core.optimize_ms", "ms", "lower"},
	{"core.tick_ms", "ms", "lower"},
	{"cluster.place_us", "us", "lower"},
	{"ml.train_s", "s", "lower"},
}

const (
	// minRuns is the fewest untraced cold runs behind an end-to-end median.
	minRuns = 3
	// budget bounds one invocation, so it ends well within three minutes
	// even when the machine is slow.
	budget = 170 * time.Second
)

type benchConfig struct {
	w       workloadDef
	seed    int64
	seconds float64
	traced  bool
	out     string
	tiny    bool
}

// childRun is one cold process: its result plus what the parent measured.
type childRun struct {
	res    *runResult
	wallS  float64
	rssMiB float64
	errs   []string
}

// orchestrate runs cold child processes until the measuring time is spent,
// checks every run, prints the report and returns the exit code.
func orchestrate(stdout io.Writer, cfg benchConfig) int {
	if cfg.tiny {
		cfg.w = cfg.w.tiny()
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// An interrupted benchmark kills its running child before it exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	start := time.Now()
	var runs []*childRun
	var walls, refs []float64
	referenceSeconds() // the first pass also grows the heap
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 0
		refs = append(refs, referencePasses()...)
		r := spawn(ctx, exe, cfg, traced)
		runs = append(runs, r)
		if len(r.errs) > 0 {
			break
		}
		walls = append(walls, r.wallS)
		enough := i+1 >= minRuns
		if cfg.traced {
			enough = i >= 1 // one traced and one untraced run
		}
		elapsed := time.Since(start).Seconds()
		if enough && (elapsed+median(walls) > cfg.seconds || elapsed+median(walls) > 0.8*budget.Seconds()) {
			break
		}
	}
	refs = append(refs, referencePasses()...)
	checkRuns(cfg, runs)
	return report(stdout, cfg, runs, median(refs))
}

// referencePasses times three passes of the reference computation.
func referencePasses() []float64 {
	return []float64{referenceSeconds(), referenceSeconds(), referenceSeconds()}
}

// spawn runs the workload once in a fresh process: the harness caches
// set-up per process, so only a cold process pays and reports it.
func spawn(ctx context.Context, exe string, cfg benchConfig, traced bool) *childRun {
	args := []string{"-workload", cfg.w.Name, "-seed", strconv.FormatInt(cfg.seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t := time.Now()
	err := cmd.Run()
	r := &childRun{wallS: time.Since(t).Seconds()}
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("child process: %v", err))
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	r.res = &runResult{}
	if err := json.Unmarshal(out.Bytes(), r.res); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("decoding child result: %v", err))
		r.res = nil
	} else if r.res.Workload != cfg.w.Name || r.res.Seed != cfg.seed || r.res.Traced != traced {
		r.errs = append(r.errs, "child reported a different run than requested")
	}
	return r
}

// checkRuns applies the correctness gate to every run: the invariants on any
// seed, the stored fingerprint at the default seed, and identical modelled
// output across all runs of the invocation, traced or not.
func checkRuns(cfg benchConfig, runs []*childRun) {
	var want *fingerprint
	if cfg.seed == defaultSeed && !cfg.tiny {
		fp, ok, err := storedFingerprint(cfg.w.Name)
		switch {
		case err != nil:
			runs[0].errs = append(runs[0].errs, err.Error())
		case !ok:
			runs[0].errs = append(runs[0].errs, "no stored fingerprint for "+cfg.w.Name)
		default:
			want = &fp
		}
	}
	for _, r := range runs {
		if r.res == nil {
			continue
		}
		r.errs = append(r.errs, invariants(cfg.w, r.res.Print)...)
		if want == nil {
			want = &r.res.Print
			continue
		}
		for _, d := range diffFingerprints(*want, r.res.Print) {
			r.errs = append(r.errs, "fingerprint "+d)
		}
	}
}

// report prints every metric with its unit and, last, the JSON summary line.
// ref is the median time of the reference computation over the invocation.
func report(stdout io.Writer, cfg benchConfig, runs []*childRun, ref float64) int {
	var plain, traced []*childRun
	failed := 0
	for _, r := range runs {
		for _, e := range r.errs {
			fmt.Fprintf(stdout, "FAIL %s seed %d: %s\n", cfg.w.Name, cfg.seed, e)
		}
		switch {
		case len(r.errs) > 0:
			failed++
		case r.res.Traced:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
	}
	correct := failed == 0 && len(plain) > 0 && (!cfg.traced || len(traced) > 0)
	fmt.Fprintf(stdout, "perfbench %s seed %d: %d cold runs (%d untraced, %d traced), %d failed\n",
		cfg.w.Name, cfg.seed, len(runs), len(plain), len(traced), failed)
	fmt.Fprintln(stdout, "model unvalidated: the repository holds no hardware reference measurements, so no accuracy error is given")

	metrics := map[string]any{}
	if correct {
		speed := refNominal / ref
		e2e, raw, series := endToEndValues(plain, speed)
		fmt.Fprintf(stdout, "host speed %.4f of nominal: reference median %.6f s, nominal %.3f s; host times below are raw × speed (sim_speed ÷ speed)\n",
			speed, ref, refNominal)
		for _, m := range append(endToEnd, hostUnbounded...) {
			printMetric(stdout, "end-to-end", m, e2e[m.Name], len(plain))
			fmt.Fprintf(stdout, "           %-26s raw %f, runs %v\n", m.Name, raw[m.Name], series[m.Name])
		}
		if !cfg.traced {
			for _, m := range endToEnd {
				metrics[m.Name] = map[string]any{"value": e2e[m.Name], "unit": m.Unit}
			}
		}
		fp := plain[0].res.Print
		for _, m := range modelled {
			v := map[string]float64{"sla_violation_pct": fp.SLAViolationPct,
				"failed_pct": fp.FailedPct, "recovery_min": fp.RecoveryMin}[m.Name]
			printMetric(stdout, "modelled", m, v, len(plain))
		}
		if fpJSON, err := json.Marshal(fp); err == nil {
			fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
		}
		if cfg.traced {
			layer := layerValues(traced, raw["wall_s"])
			for _, m := range perLayer {
				printMetric(stdout, "per-layer", m, layer[m.Name], len(traced))
				metrics[m.Name] = map[string]any{"value": layer[m.Name], "unit": m.Unit}
			}
			for _, m := range layerDetail {
				printMetric(stdout, "per-layer", m, layer[m.Name], len(traced))
			}
			if err := writeSpans(stdout, cfg, traced); err != nil {
				fmt.Fprintf(stdout, "FAIL writing spans: %v\n", err)
				correct = false
				failed++
			}
		}
	}
	summary, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": len(runs),
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(stdout, "%s\n", summary)
	if !correct {
		return 1
	}
	return 0
}

func printMetric(w io.Writer, kind string, m metricDef, v float64, n int) {
	fmt.Fprintf(w, "%-10s %-26s %16.6f %-10s (median of %d runs, %s is better)\n", kind, m.Name, v, m.Unit, n, m.Better)
}

// endToEndValues takes the median of each end-to-end metric over the
// untraced runs, raw and with host times scaled to nominal host speed.
func endToEndValues(runs []*childRun, speed float64) (scaled, raw map[string]float64, series map[string][]float64) {
	series = map[string][]float64{}
	for _, r := range runs {
		series["wall_s"] = append(series["wall_s"], r.wallS)
		series["peak_rss_mib"] = append(series["peak_rss_mib"], r.rssMiB)
		series["cpu_cores"] = append(series["cpu_cores"], r.res.Print.CPUCores)
		for _, k := range []string{"setup_s", "sim_speed", "decision_ms"} {
			series[k] = append(series[k], r.res.Host[k])
		}
	}
	scaled, raw = map[string]float64{}, map[string]float64{}
	for k, xs := range series {
		raw[k] = median(xs)
		scaled[k] = raw[k]
	}
	for _, k := range []string{"wall_s", "setup_s", "decision_ms"} {
		scaled[k] *= speed
	}
	scaled["sim_speed"] /= speed
	return scaled, raw, series
}

// layerValues takes the median of each per-layer metric over the traced
// runs; a layer a workload never calls reports 0. The tracing overhead is
// the traced runs' median wall time minus the untraced one.
func layerValues(traced []*childRun, plainWall float64) map[string]float64 {
	series := map[string][]float64{}
	var walls []float64
	for _, r := range traced {
		var rootNS int64
		for _, s := range r.res.Spans {
			if s.Parent < 0 {
				rootNS += s.EndNS - s.StartNS
			}
		}
		r.res.Layer["trace.coverage"] = float64(rootNS) / 1e9 / r.wallS
		walls = append(walls, r.wallS)
		for _, m := range append(perLayer, layerDetail...) {
			series[m.Name] = append(series[m.Name], r.res.Layer[m.Name])
		}
	}
	out := map[string]float64{}
	for k, xs := range series {
		out[k] = median(xs)
	}
	out["trace.overhead_s"] = median(walls) - plainWall
	return out
}

// writeSpans dumps each traced run's spans and per-name self times under
// cfg.out, and prints the self-time split of the first traced run.
func writeSpans(stdout io.Writer, cfg benchConfig, traced []*childRun) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	for i, r := range traced {
		self := selfTimes(r.res.Spans)
		type selfJSON struct {
			Name  string  `json:"name"`
			Count int     `json:"count"`
			SelfS float64 `json:"self_s"`
		}
		doc := struct {
			Workload string     `json:"workload"`
			Seed     int64      `json:"seed"`
			WallS    float64    `json:"wall_s"`
			Self     []selfJSON `json:"self_times"`
			Spans    []span     `json:"spans"`
		}{Workload: cfg.w.Name, Seed: cfg.seed, WallS: r.wallS, Spans: r.res.Spans}
		var sum float64
		for _, st := range self {
			doc.Self = append(doc.Self, selfJSON{st.Name, st.Count, st.Self.Seconds()})
			sum += st.Self.Seconds()
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d-%d.json", cfg.w.Name, cfg.seed, i))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(stdout, "spans written to %s\n", path)
			for _, st := range self {
				fmt.Fprintf(stdout, "self-time  %-26s %16.6f s   (%d spans, %5.1f%% of traced wall_s)\n",
					st.Name, st.Self.Seconds(), st.Count, 100*st.Self.Seconds()/r.wallS)
			}
			fmt.Fprintf(stdout, "self-time  %-26s %16.6f s   (process start and exit, outside every span)\n",
				"(unspanned)", r.wallS-sum)
		}
	}
	return nil
}
