// ursa-sim runs one benchmark application under one resource manager and
// one load pattern, then prints a per-class SLA and resource report.
//
// Usage:
//
//	ursa-sim -app social-network -system ursa -load dynamic -minutes 30
//	ursa-sim -app video-pipeline -system auto-a -load constant
//	ursa-sim -topology examples/specs/two-tier.json -system ursa
//	ursa-sim -dump-topology media-service > my-app.yaml
//	ursa-sim -validate examples/specs/*.yaml examples/specs/*.json
//	ursa-sim -app social-network -system ursa -resilience -fail-node node-7 -fail-at 10 -fail-for 5
//	ursa-sim -app social-network -system ursa -regions -resilience -fail-region eu-west
//	ursa-sim -app social-network -system none -minutes 10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Systems: ursa, sinan, firm, auto-a, auto-b, none.
//
// Topologies as data: -topology runs an application authored as a declarative
// spec file (YAML or JSON — the schema the built-in apps themselves use, see
// examples/specs/ and DESIGN.md §4g); -dump-topology prints any built-in app
// (or a generated corpus-s<seed>-<n> member) in that same canonical form, so
// the fastest way to author a variant is to dump a built-in and edit it.
// -validate type-checks spec files without running anything.
//
// The run itself is experiments.Options.Run — the same deployment runner
// every comparison figure uses — so this command only maps flags onto a
// Scenario, wires the file sinks and prints the report.
//
// Profiling: -cpuprofile / -memprofile write runtime/pprof profiles of the
// whole run (inspect with `go tool pprof`), so hot-path regressions are
// diagnosable without editing code.
//
// Fault injection: -fail-node crashes a node mid-run (the app is then bound
// to the paper's 8-node testbed so placements are real); -resilience arms
// client-side RPC timeouts and retries — required for runs where replicas
// can die, or callers of crashed replicas hang forever, exactly like an
// unprotected real client.
//
// Geo-regions: -regions deploys on the app's region topology (a spec file's
// regions: section, or the Fig.R1 three-region layout for the built-in
// social-network): replicas pin to their home region, cross-region RPC pays
// WAN latency, and -spill controls overflow placement. -fail-region fails
// every node of a region mid-run (timing via -fail-at/-fail-for).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"ursa/internal/experiments"
	"ursa/internal/faults"
	"ursa/internal/metrics"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/spec"
	"ursa/internal/topology"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ursa-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("ursa-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName  = fs.String("app", "social-network", "application: social-network|vanilla-social-network|media-service|video-pipeline")
		system   = fs.String("system", "ursa", "manager: ursa|sinan|firm|auto-a|auto-b|none")
		load     = fs.String("load", "constant", "load pattern: constant|diurnal|burst")
		minutes  = fs.Int("minutes", 30, "deployment duration (simulated minutes)")
		rpsMult  = fs.Float64("rps", 1.0, "multiplier on the app's nominal RPS")
		seed     = fs.Int64("seed", 1, "random seed")
		scale    = fs.Float64("scale", 0.5, "training/exploration scale for managers that need it")
		parallel = fs.Int("parallel", 0, "worker pool size for harness-level preparation (0 = GOMAXPROCS, 1 = sequential)")
		quiet    = fs.Bool("q", false, "suppress progress logging")
		topoFile = fs.String("topology", "", "load an application from a declarative spec file (.yaml or .json, see examples/specs/); overrides -app")
		dumpTopo = fs.String("dump-topology", "", "print the canonical spec of a built-in app or corpus-s<seed>-<n> member, then exit")
		validate = fs.Bool("validate", false, "parse, validate and compile the spec files given as arguments, then exit (non-zero on error)")

		failNode   = fs.String("fail-node", "", "crash this node mid-run (e.g. node-7); binds the app to the paper testbed cluster")
		failAt     = fs.Float64("fail-at", 10, "minutes after warm-up at which the node (or region) fails")
		failFor    = fs.Float64("fail-for", 5, "minutes until the failed node (or region) recovers (0 = never)")
		resilience = fs.Bool("resilience", false, "enable client-side RPC timeouts and retries")

		useRegions = fs.Bool("regions", false, "deploy on the app's geo-region topology: the spec's regions: section, or the Fig.R1 layout for social-network")
		spill      = fs.Bool("spill", true, "with -regions, let placement overflow into the nearest foreign region when home is capacity-short")
		failRegion = fs.String("fail-region", "", "with -regions, fail every node of this region mid-run (timing via -fail-at/-fail-for)")

		telemetry   = fs.String("telemetry", "exact", "latency collectors: exact (raw samples) | sketch (bounded-error quantile sketches, flat memory)")
		sketchAlpha = fs.Float64("sketch-alpha", 0.01, "relative-error bound for -telemetry sketch")
		retention   = fs.Int("retention", 0, "trim telemetry windows older than this many minutes (0 = keep everything)")
		traceOut    = fs.String("trace-out", "", "stream sampled request traces to this file as OTLP-style JSONL spans")
		traceSample = fs.Int("trace-sample", 20, "with -trace-out, trace one of every N jobs")
		metricsOut  = fs.String("metrics-out", "", "write retained per-window latency/arrival metrics to this file as OTLP-style JSONL summary points")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *validate {
		return runValidate(fs.Args(), stdout, stderr)
	}
	if *dumpTopo != "" {
		return runDumpTopology(*dumpTopo, stdout)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %s: %w", *cpuProfile, cerr)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(*memProfile)
			}
		}()
	}

	c, regionTopo, err := loadApp(*topoFile, *appName)
	if err != nil {
		return err
	}
	c.TotalRPS *= *rpsMult

	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallelism: *parallel}
	if !*quiet {
		opts.Log = stderr
	}

	dur := sim.Time(*minutes) * sim.Minute
	sc := experiments.Scenario{App: c, System: *system, Duration: dur, Seed: *seed}
	switch *load {
	case "constant":
		sc.Pattern = workload.Constant{Value: c.TotalRPS}
	case "diurnal":
		sc.Pattern = workload.Diurnal{Base: c.TotalRPS * 0.5, Peak: c.TotalRPS * 1.5, Period: dur}
	case "burst":
		sc.Pattern = workload.Modulate{
			Base: workload.Constant{Value: c.TotalRPS}, Factor: 2,
			Start: dur * 2 / 5, Len: dur / 5,
		}
	default:
		return fmt.Errorf("unknown load %q", *load)
	}

	sc.Telemetry.Retention = sim.Time(*retention) * sim.Minute
	switch *telemetry {
	case "exact":
	case "sketch":
		sc.Telemetry.SketchAlpha = *sketchAlpha
	default:
		return fmt.Errorf("unknown telemetry mode %q (want exact|sketch)", *telemetry)
	}

	failStart := experiments.Warmup + sim.Time(*failAt*float64(sim.Minute))
	failLen := sim.Time(*failFor * float64(sim.Minute))
	if *useRegions {
		if regionTopo.Empty() && c.Name == "social-network" {
			// The built-in app has no regions: section; use the Fig.R1 layout.
			regionTopo = experiments.SocialNetworkRegions()
		}
		regionTopo.Spill = *spill
		sc.Placement, sc.Regions = experiments.Regions, regionTopo
	}
	if *failNode != "" {
		if !*useRegions {
			sc.Placement = experiments.Testbed
		}
		sc.Faults.NodeFails = []faults.NodeFail{{Node: *failNode, At: failStart, For: failLen}}
	}
	if *failRegion != "" {
		sc.RegionFail = experiments.RegionFail{Region: *failRegion, At: failStart, For: failLen}
	}
	if *resilience {
		sc.Resilience = &services.ResiliencePolicy{}
	} else if *failNode != "" || *failRegion != "" {
		fmt.Fprintln(stderr, "ursa-sim: warning: node/region failure without -resilience — callers of crashed replicas will hang")
	}

	var (
		spanFile *os.File
		spanW    *trace.SpanWriter
	)
	if *traceOut != "" {
		if spanFile, err = os.Create(*traceOut); err != nil {
			return err
		}
		defer spanFile.Close()
		sc.Tracer = trace.NewTracer(*traceSample, 1) // stream, don't retain
		spanW = trace.NewSpanWriter(spanFile)
		sc.Tracer.Exporter = spanW.ExportTrace
	}

	out, app, err := opts.Run(sc)
	if err != nil {
		return err
	}
	if spanW != nil {
		if err := spanW.Flush(); err != nil {
			return fmt.Errorf("writing %s: %w", *traceOut, err)
		}
		if err := spanFile.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", *traceOut, err)
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, app); err != nil {
			return fmt.Errorf("writing %s: %w", *metricsOut, err)
		}
	}

	fmt.Fprintf(stdout, "\n%s under %s (%s load, %d min):\n\n", c.Name, *system, *load, *minutes)
	fmt.Fprintf(stdout, "%-22s %10s %12s %10s\n", "class", "SLA(ms)", "pXX(ms)", "violated")
	totalWin, violWin := 0, 0
	for _, co := range out.Classes {
		totalWin += co.Windows
		violWin += co.Violated
		fmt.Fprintf(stdout, "%-22s %10.0f %12.1f %9.1f%%\n", co.Name, co.SLAMillis, co.Latency,
			100*float64(co.Violated)/float64(max(1, co.Windows)))
	}
	fmt.Fprintf(stdout, "\noverall SLA violation rate: %.1f%%\n", 100*float64(violWin)/float64(max(1, totalWin)))
	fmt.Fprintf(stdout, "average CPU allocation:     %.1f cores\n", out.AvgCPUs)
	if *system != "none" {
		fmt.Fprintf(stdout, "avg decision latency:       %.3f ms\n", out.DecisionMs)
	}
	fmt.Fprintf(stdout, "jobs injected/completed:    %d/%d\n", app.InjectedJobs, app.CompletedJobs())
	if *resilience || *failNode != "" || *failRegion != "" {
		fmt.Fprintf(stdout, "jobs failed:                %d (availability %.3f%%)\n", app.FailedJobs(), out.Availability*100)
	}
	if *resilience {
		fmt.Fprintf(stdout, "rpc errors/retries:         %.0f/%.0f\n", out.Errors, out.Retries)
	}
	if *failNode != "" {
		fmt.Fprintf(stdout, "replicas evicted:           %d (unschedulable events: %d)\n", out.Evicted, out.Unschedulable)
		fmt.Fprintln(stdout, "\nfault log:")
		for _, rec := range out.FaultLog {
			fmt.Fprintf(stdout, "  %-12v %s\n", rec.At, rec.Detail)
		}
	}
	if *useRegions {
		fmt.Fprintf(stdout, "replicas spilled:           %d (WAN hops: %d)\n", out.Spilled, out.WANHops)
		if *failRegion != "" {
			fmt.Fprintf(stdout, "replicas evicted:           %d (unschedulable events: %d)\n", out.Evicted, out.Unschedulable)
		}
	}
	return nil
}

// loadApp resolves the application to run: a declarative spec file (with any
// regions: section it declares) or a built-in app by name.
func loadApp(topoFile, appName string) (experiments.AppCase, region.Topology, error) {
	if topoFile == "" {
		c, ok := experiments.AppCaseByName(appName)
		if !ok {
			return c, region.Topology{}, fmt.Errorf("unknown app %q", appName)
		}
		return c, region.Topology{}, nil
	}
	compiled, err := buildSpecFile(topoFile)
	if err != nil {
		return experiments.AppCase{}, region.Topology{}, err
	}
	return experiments.AppCase{Name: compiled.Spec.Name, Spec: compiled.Spec,
		Mix: compiled.Mix, TotalRPS: compiled.Rate}, compiled.Regions, nil
}

// buildSpecFile reads, parses, validates and compiles one spec file.
func buildSpecFile(path string) (spec.Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return spec.Compiled{}, err
	}
	f, err := spec.Parse(filepath.Base(path), data)
	if err != nil {
		return spec.Compiled{}, err
	}
	return spec.Build(f)
}

// writeHeapProfile writes an end-of-run heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live-heap accounting before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

// writeMetrics dumps every retained telemetry window as OTLP-style JSONL
// summary points: end-to-end latency per class, per-service response time,
// and per-service arrival counts.
func writeMetrics(path string, app *services.App) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	qs := []float64{50, 90, 99}
	var pts []metrics.MetricPoint
	for _, class := range app.E2E.Classes() {
		pts = append(pts, metrics.WindowPoints("ursa.e2e.latency",
			[]metrics.KV{{Key: "class", Value: class}}, app.E2E.Class(class), qs)...)
	}
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		attrs := []metrics.KV{{Key: "service", Value: name}}
		pts = append(pts, metrics.WindowPoints("ursa.service.resptime", attrs, svc.RespTime, qs)...)
		pts = append(pts, metrics.CounterPoints("ursa.service.arrivals", attrs, svc.ArrivalsAll)...)
	}
	if err := metrics.WritePoints(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runValidate parses, validates and compiles each spec file, reporting every
// failure; it errors if any file is invalid.
func runValidate(files []string, stdout, stderr io.Writer) error {
	if len(files) == 0 {
		return errors.New("-validate: no spec files given")
	}
	bad := 0
	for _, path := range files {
		if _, err := buildSpecFile(path); err != nil {
			fmt.Fprintln(stderr, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok %s\n", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d spec files invalid", bad, len(files))
	}
	return nil
}

// runDumpTopology prints the canonical spec of a built-in application or a
// generated corpus member (name form corpus-s<seed>-<index>, as reported by
// the figc1 experiment).
func runDumpTopology(name string, stdout io.Writer) error {
	var (
		appSpec services.AppSpec
		mix     workload.Mix
		rate    float64
	)
	if app, ok := topology.AppByName(name); ok {
		appSpec, mix, rate = app.Spec, app.Mix, app.RPS
	} else {
		var seed int64
		var idx int
		if n, _ := fmt.Sscanf(name, "corpus-s%d-%d", &seed, &idx); n != 2 {
			return fmt.Errorf("unknown topology %q (want a built-in app or corpus-s<seed>-<n>)", name)
		}
		c, _, err := experiments.GenerateCorpusCase(seed, idx)
		if err != nil {
			return fmt.Errorf("generating %s: %w", name, err)
		}
		appSpec, mix, rate = c.Spec, c.Mix, c.TotalRPS
	}
	data, err := spec.Dump(appSpec, mix, rate)
	if err != nil {
		return fmt.Errorf("dumping %s: %w", name, err)
	}
	_, err = stdout.Write(data)
	return err
}
