// ursa-bench regenerates the paper's tables and figures on the simulated
// testbed and writes the rendered results under an output directory.
//
// Usage:
//
//	ursa-bench -exp all -scale 1.0 -out results
//	ursa-bench -exp fig11 -apps social-network,media-service -scale 0.3
//
// Experiments: fig2, fig4, tab5, fig9, fig10, fig11 (includes fig12), fig13,
// tab6, fig14, figf1 (fault injection / recovery), figr1 (region failover),
// figr2 (follow-the-sun multi-region load), figc1 (generated-topology
// corpus; -corpus-n sizes it, -corpus-json also writes the machine-readable
// result), figs1 (fleet scaling curve; -figs1-nodes/-figs1-tenants size the
// sweeps, -figs1-json writes BENCH_placement.json), all. Scale < 1 shortens
// deployments and ML sample counts proportionally; shapes are preserved.
//
// Independent simulation cells run concurrently on a bounded worker pool
// (-parallel, default GOMAXPROCS); results are merged in a canonical order,
// so any parallelism level writes byte-identical tables. -parallel 1 forces
// fully sequential execution.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ursa/internal/experiments"
	"ursa/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ursa-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ursa-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: fig2|fig4|tab5|fig9|fig10|fig11|fig13|tab6|fig14|figf1|figr1|figr2|figc1|figs1|ablation|all")
		scale    = fs.Float64("scale", 1.0, "duration/sample scale (1.0 = paper-like proportions)")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", "results", "output directory")
		apps     = fs.String("apps", "", "comma-separated app filter for fig11/fig12")
		systems  = fs.String("systems", "", "comma-separated system filter for fig11/fig12")
		parallel = fs.Int("parallel", 0, "worker pool size for independent simulation cells (0 = GOMAXPROCS, 1 = sequential)")
		quiet    = fs.Bool("q", false, "suppress progress logging")

		corpusN    = fs.Int("corpus-n", 100, "number of generated topologies for figc1")
		corpusJSON = fs.String("corpus-json", "", "also write the figc1 result as JSON to this path")

		figs1Nodes   = fs.String("figs1-nodes", "", "comma-separated node counts for the figs1 node sweep (default 8..1024 doubling)")
		figs1Tenants = fs.String("figs1-tenants", "", "comma-separated tenant counts for the figs1 tenant sweep (default 1..32 doubling)")
		figs1JSON    = fs.String("figs1-json", "", "also write the figs1 result as JSON to this path (BENCH_placement.json)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	nodes, err := parseInts(*figs1Nodes)
	if err != nil {
		return err
	}
	tenants, err := parseInts(*figs1Tenants)
	if err != nil {
		return err
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallelism: *parallel}
	if !*quiet {
		opts.Log = stderr
	}

	var appFilter, sysFilter []string
	if *apps != "" {
		appFilter = strings.Split(*apps, ",")
	}
	if *systems != "" {
		sysFilter = strings.Split(*systems, ",")
	}

	// Each experiment renders its table; a failed side-file write is
	// returned as the job's error.
	type job struct {
		name string
		fn   func() (string, error)
	}
	var jobs []job
	var names []string
	add := func(name string, fn func() (string, error)) {
		names = append(names, name)
		if *exp == "all" || *exp == name {
			jobs = append(jobs, job{name, fn})
		}
	}
	table := func(name string, fn func() string) {
		add(name, func() (string, error) { return fn(), nil })
	}

	table("fig2", func() string { return experiments.RunBackpressure(opts).Render() })
	table("fig4", func() string { return experiments.RunProfiling(opts).Render() })
	table("tab5", func() string { return experiments.RunExploration(opts).Render() })
	table("fig9", func() string {
		c, _ := experiments.AppCaseByName("social-network")
		return experiments.RunAccuracy(opts, c, []string{
			topology.UploadPost, topology.UpdateTimeline,
			topology.ObjectDetect, topology.SentimentAnalysis,
		}).Render()
	})
	table("fig10", func() string {
		c, _ := experiments.AppCaseByName("video-pipeline")
		return experiments.RunAccuracy(opts, c, []string{
			topology.HighPriority, topology.LowPriority,
		}).Render()
	})
	table("fig11", func() string { return experiments.RunComparison(opts, appFilter, sysFilter).Render() })
	table("fig13", func() string { return experiments.RunDiurnal(opts).Render() })
	table("tab6", func() string { return experiments.RunControlPlane(opts).Render() })
	table("fig14", func() string { return experiments.RunAdaptation(opts).Render() })
	table("figf1", func() string { return experiments.RunResilience(opts).Render() })
	table("figr1", func() string { return experiments.RunRegionFailover(opts).Render() })
	table("figr2", func() string { return experiments.RunFollowTheSun(opts).Render() })
	add("figc1", func() (string, error) {
		r := experiments.RunCorpus(opts, experiments.CorpusParams{N: *corpusN, Systems: sysFilter})
		return r.Render(), writeJSON(stderr, *corpusJSON, r.JSON)
	})
	add("figs1", func() (string, error) {
		r := experiments.RunScaling(opts, experiments.ScalingParams{Nodes: nodes, Tenants: tenants})
		return r.Render(), writeJSON(stderr, *figs1JSON, r.JSON)
	})
	table("ablation", func() string { return experiments.RunAblation(opts).Render() })

	if len(jobs) == 0 {
		return fmt.Errorf("unknown experiment %q (valid: %s, all)", *exp, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// Experiments themselves are independent jobs: fan them over the same
	// bounded pool (single-deployment studies like fig13 then overlap with
	// the grids), but buffer their tables and emit everything in the
	// canonical order above, so output is identical at any parallelism.
	texts := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	experiments.ForEach(opts, len(jobs), func(i int) {
		fmt.Fprintf(stderr, "== %s ==\n", jobs[i].name)
		texts[i], errs[i] = jobs[i].fn()
	})
	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		path := filepath.Join(*out, j.name+".txt")
		if err := os.WriteFile(path, []byte(texts[i]), 0o644); err != nil {
			return err
		}
		fmt.Fprint(stdout, texts[i])
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return nil
}

// writeJSON writes an experiment's machine-readable result to path; an empty
// path writes nothing.
func writeJSON(stderr io.Writer, path string, data func() []byte) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, data(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

// parseInts parses a comma-separated list of positive ints; empty input
// returns nil (the experiment's default sweep).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}
