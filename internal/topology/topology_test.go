package topology

import (
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/spec"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, app := range Apps() {
		spec := app.Spec
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
	chain := BackpressureChain(services.NestedRPC)
	if err := chain.Validate(); err != nil {
		t.Errorf("chain: %v", err)
	}
}

func TestVanillaDropsMLServices(t *testing.T) {
	v := VanillaSocialNetwork()
	for _, s := range v.Services {
		if s.Name == "sentiment-ml" || s.Name == "object-detect-ml" {
			t.Fatalf("vanilla still contains %s", s.Name)
		}
	}
	if v.Class(SentimentAnalysis) != nil || v.Class(ObjectDetect) != nil {
		t.Fatal("vanilla still declares ML classes")
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("vanilla spec invalid: %v", err)
	}
	// Original is untouched (deep-copy semantics for handlers we modify).
	full := SocialNetwork()
	if full.ServiceSpecByName("image-store") == nil {
		t.Fatal("full spec broken")
	}
	found := false
	for _, st := range full.ServiceSpecByName("image-store").Handlers[UploadImage] {
		if sp, ok := st.(services.Spawn); ok && sp.Class == ObjectDetect {
			found = true
		}
	}
	if !found {
		t.Fatal("full social network lost its object-detect spawn")
	}
}

// runApp drives an app at the given total RPS for the given duration and
// returns the app for inspection.
func runApp(t *testing.T, spec services.AppSpec, mix workload.Mix, rps float64, dur sim.Time, seed int64) *services.App {
	t.Helper()
	eng := sim.NewEngine(seed)
	app := services.MustNewApp(eng, spec)
	g := workload.New(eng, app, workload.Constant{Value: rps}, mix)
	g.Start()
	eng.RunUntil(dur)
	return app
}

func TestSocialNetworkMeetsSLAsAtModerateLoad(t *testing.T) {
	app := runApp(t, SocialNetwork(), SocialNetworkMix(), 100, 10*sim.Minute, 31)
	if app.CompletedJobs() == 0 {
		t.Fatal("no jobs completed")
	}
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			t.Errorf("class %s never completed", cs.Name)
			continue
		}
		// Skip the warm-up minute.
		lat := rec.Between(sim.Minute, 10*sim.Minute)
		p := stats.Percentile(lat, cs.SLAPercentile)
		if p > cs.SLAMillis {
			t.Errorf("%s: p%.0f = %.1fms exceeds SLA %.0fms at moderate load",
				cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
		if p < cs.SLAMillis*0.02 {
			t.Errorf("%s: p%.0f = %.1fms is implausibly far below SLA %.0fms (mis-scaled workload?)",
				cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
	}
}

func TestMediaServiceMeetsSLAsAtModerateLoad(t *testing.T) {
	app := runApp(t, MediaService(), MediaServiceMix(), 60, 10*sim.Minute, 32)
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			t.Errorf("class %s never completed", cs.Name)
			continue
		}
		lat := rec.Between(sim.Minute, 10*sim.Minute)
		p := stats.Percentile(lat, cs.SLAPercentile)
		if p > cs.SLAMillis {
			t.Errorf("%s: p%.0f = %.1fms exceeds SLA %.0fms", cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
	}
}

func TestVideoPipelineMeetsSLAsAtModerateLoad(t *testing.T) {
	app := runApp(t, VideoPipeline(), VideoPipelineMix(50, 50), 4, 20*sim.Minute, 33)
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			t.Errorf("class %s never completed", cs.Name)
			continue
		}
		lat := rec.Between(2*sim.Minute, 20*sim.Minute)
		p := stats.Percentile(lat, cs.SLAPercentile)
		if p > cs.SLAMillis {
			t.Errorf("%s: p%.0f = %.1fms exceeds SLA %.0fms", cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
	}
}

func TestVideoPipelinePriorityInversionImpossible(t *testing.T) {
	// Under pressure, high-priority p99 must stay well below low-priority
	// p99: low-priority waits, high-priority doesn't.
	app := runApp(t, VideoPipeline(), VideoPipelineMix(25, 75), 7, 20*sim.Minute, 34)
	hi := stats.Percentile(app.E2E.Class(HighPriority).Between(2*sim.Minute, 20*sim.Minute), 99)
	lo := stats.Percentile(app.E2E.Class(LowPriority).Between(2*sim.Minute, 20*sim.Minute), 99)
	if hi >= lo {
		t.Fatalf("priority inversion: high p99=%.0fms ≥ low p99=%.0fms", hi, lo)
	}
}

func TestSocialNetworkDerivedClassesFlow(t *testing.T) {
	// Uploading a post must spawn update-timeline and sentiment jobs;
	// uploading an image must spawn object-detect jobs.
	app := runApp(t, SocialNetwork(), workload.Mix{UploadPost: 1, UploadImage: 1}, 20, 5*sim.Minute, 35)
	for _, derived := range []string{UpdateTimeline, SentimentAnalysis, ObjectDetect} {
		rec := app.E2E.Class(derived)
		if rec == nil || rec.Count(0, 5*sim.Minute) == 0 {
			t.Errorf("derived class %s produced no completions", derived)
		}
	}
}

func TestMediaDerivedClassesFlow(t *testing.T) {
	app := runApp(t, MediaService(), workload.Mix{UploadVideo: 1}, 2, 10*sim.Minute, 36)
	for _, derived := range []string{TranscodeVideo, GenerateThumbnail} {
		rec := app.E2E.Class(derived)
		if rec == nil || rec.Count(0, 10*sim.Minute) == 0 {
			t.Errorf("derived class %s produced no completions", derived)
		}
	}
}

func TestChainTierNames(t *testing.T) {
	if ChainTier(1) != "tier1" || ChainTier(5) != "tier5" {
		t.Fatal("ChainTier naming wrong")
	}
}

// TestSpecsJSONRoundTrip checks that every built-in app survives the JSON
// form of the topology format: its canonical spec, written as JSON and
// loaded back through spec.Parse's JSON branch, compiles to the same app.
func TestSpecsJSONRoundTrip(t *testing.T) {
	for _, app := range Apps() {
		f, err := spec.Canonical(app.Spec, app.Mix, app.RPS)
		if err != nil {
			t.Fatalf("%s: canonical: %v", app.Name, err)
		}
		data, err := json.Marshal(specJSON(f))
		if err != nil {
			t.Fatalf("%s: marshal: %v", app.Name, err)
		}
		g, err := spec.Parse(app.Name+".json", data)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", app.Name, err, data)
		}
		c, err := spec.Build(g)
		if err != nil {
			t.Fatalf("%s: build: %v", app.Name, err)
		}
		if !reflect.DeepEqual(c.Spec, app.Spec) {
			t.Errorf("%s: JSON round trip changed the app", app.Name)
			diffAppSpecs(t, c.Spec, app.Spec)
		}
		if !reflect.DeepEqual(c.Mix, app.Mix) || c.Rate != app.RPS {
			t.Errorf("%s: JSON round trip changed the workload", app.Name)
		}
	}
}

// specJSON renders a spec.File as the JSON document spec.Parse reads, key
// for key the JSON counterpart of File.Encode's YAML.
func specJSON(f *spec.File) map[string]any {
	ms := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) + "ms" }
	var steps func([]spec.Step) []any
	steps = func(in []spec.Step) []any {
		out := []any{}
		for _, st := range in {
			switch st.Kind {
			case spec.StepCompute:
				c := map[string]any{"duration": ms(st.Duration.MeanMs)}
				if st.Duration.DevMs != 0 {
					c["duration"] = ms(st.Duration.MeanMs) + " +/- " + ms(st.Duration.DevMs)
				}
				if st.CV != 0 {
					c["cv"] = st.CV
				}
				out = append(out, map[string]any{"compute": c})
			case spec.StepCall:
				c := map[string]any{"service": st.Service}
				if st.Mode != "" {
					c["mode"] = st.Mode
				}
				if st.Class != "" {
					c["class"] = st.Class
				}
				if st.ErrorRate != 0 {
					c["error_rate"] = st.ErrorRate
				}
				out = append(out, map[string]any{"call": c})
			case spec.StepSpawn:
				out = append(out, map[string]any{"spawn": map[string]any{"service": st.Service, "class": st.Class}})
			case spec.StepPar:
				var brs []any
				for _, b := range st.Branches {
					brs = append(brs, map[string]any{"steps": steps(b.Steps)})
				}
				out = append(out, map[string]any{"par": map[string]any{"branches": brs}})
			}
		}
		return out
	}
	doc := map[string]any{"version": f.Version, "app": f.App}
	if len(f.Regions) > 0 {
		var regions []any
		for _, r := range f.Regions {
			m := map[string]any{"name": r.Name, "nodes": r.Nodes}
			if len(r.WAN) > 0 {
				wan := map[string]any{}
				for _, e := range r.WAN {
					lat := ms(e.LatencyMs)
					if e.JitterMs > 0 {
						lat += " +/- " + ms(e.JitterMs)
					}
					wan[e.To] = lat
				}
				m["wan"] = wan
			}
			regions = append(regions, m)
		}
		doc["regions"] = regions
	}
	var svcs []any
	for _, s := range f.Services {
		m := map[string]any{"name": s.Name, "kind": s.Kind, "cpus": s.CPUs, "replicas": s.Replicas}
		if s.Threads > 0 {
			m["threads"] = s.Threads
		}
		if s.Daemons > 0 {
			m["daemons"] = s.Daemons
		}
		if s.MaxReplicas > 0 {
			m["max_replicas"] = s.MaxReplicas
		}
		if s.StartupDelaySec > 0 {
			m["startup_delay"] = ms(s.StartupDelaySec * 1000)
		}
		if s.Region != "" {
			m["region"] = s.Region
		}
		if s.Ingress != nil {
			m["ingress"] = map[string]any{"cost": ms(s.Ingress.CostMs), "window": s.Ingress.Window}
		}
		ops := map[string]any{}
		for _, op := range s.Operations {
			ops[op.Name] = map[string]any{"steps": steps(op.Steps)}
		}
		m["operations"] = ops
		svcs = append(svcs, m)
	}
	doc["services"] = svcs
	var classes []any
	for _, c := range f.Classes {
		m := map[string]any{"name": c.Name, "sla": map[string]any{"percentile": c.SLA.Percentile, "latency": ms(c.SLA.LatencyMs)}}
		if c.Entry != "" {
			m["entry"] = c.Entry
		}
		if c.Priority != 0 {
			m["priority"] = c.Priority
		}
		if c.Derived {
			m["derived"] = true
		}
		classes = append(classes, m)
	}
	doc["classes"] = classes
	if f.Workload != nil {
		mix := map[string]any{}
		for _, e := range f.Workload.Mix {
			mix[e.Class] = e.Weight
		}
		doc["workload"] = map[string]any{"rate": f.Workload.Rate, "mix": mix}
	}
	return doc
}
