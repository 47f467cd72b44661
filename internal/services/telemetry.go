package services

import (
	"ursa/internal/cluster"
	"ursa/internal/metrics"
	"ursa/internal/sim"
)

// TelemetryConfig tunes the app's metrics substrate. The zero value is the
// historical behaviour: exact collectors, unbounded retention — bit-exact
// percentiles with memory O(requests). Production-scale runs set SketchAlpha
// and Retention so memory is O(retained windows) instead.
type TelemetryConfig struct {
	// SketchAlpha, when > 0, backs the latency collectors (E2E, per-service
	// RespTime and RespByClass) with mergeable quantile sketches of that
	// relative-error bound instead of raw samples. Utilisation samples stay
	// exact — they are one value per window already.
	SketchAlpha float64
	// Retention, when > 0, rolls a retention horizon: every sampling tick
	// trims windows older than now−Retention from every collector.
	Retention sim.Time
	// MaxWindows, when > 0, additionally caps retained windows per collector
	// ring-buffer style — the hard bound when Retention alone is not enough
	// (e.g. a collector fed from a paused sampler).
	MaxWindows int
}

// NewAppTelemetry deploys an application with an explicit telemetry
// configuration; cl may be nil for an uncapacitated deployment.
func NewAppTelemetry(eng *sim.Engine, spec AppSpec, window sim.Time, cl *cluster.Cluster, tc TelemetryConfig) (*App, error) {
	return newAppPlaced(eng, spec, window, cl, tc, nil)
}

// NewAppTelemetryPlaced is NewAppTelemetry with a replica placer installed
// before the initial replicas deploy (see NewAppOnClusterPlaced).
func NewAppTelemetryPlaced(eng *sim.Engine, spec AppSpec, window sim.Time, cl *cluster.Cluster, tc TelemetryConfig, p Placer) (*App, error) {
	return newAppPlaced(eng, spec, window, cl, tc, p)
}

// newWindowed builds a latency-sample collector per the telemetry config.
func (a *App) newWindowed() *metrics.Windowed {
	var w *metrics.Windowed
	if a.telemetry.SketchAlpha > 0 {
		w = metrics.NewWindowedSketch(a.window, a.telemetry.SketchAlpha)
	} else {
		w = metrics.NewWindowed(a.window)
	}
	w.SetMaxWindows(a.telemetry.MaxWindows)
	return w
}

// newLatencyRecorder builds a per-class recorder per the telemetry config.
func (a *App) newLatencyRecorder() *metrics.LatencyRecorder {
	var r *metrics.LatencyRecorder
	if a.telemetry.SketchAlpha > 0 {
		r = metrics.NewLatencyRecorderSketch(a.window, a.telemetry.SketchAlpha)
	} else {
		r = metrics.NewLatencyRecorder(a.window)
	}
	r.SetMaxWindows(a.telemetry.MaxWindows)
	return r
}

// newCounterSeries builds a counter per the telemetry config.
func (a *App) newCounterSeries() *metrics.CounterSeries {
	c := metrics.NewCounterSeries(a.window)
	c.SetMaxWindows(a.telemetry.MaxWindows)
	return c
}

// TrimTelemetry drops telemetry windows older than cutoff across the app:
// E2E, every service's latency collectors, counters, and utilisation
// samples. Managers with longer look-backs than the retention horizon must
// cache their own aggregates.
func (a *App) TrimTelemetry(cutoff sim.Time) {
	a.E2E.Trim(cutoff)
	for _, s := range a.ordered {
		s.RespTime.Trim(cutoff)
		s.RespByClass.Trim(cutoff)
		s.UtilSamples.Trim(cutoff)
		s.ArrivalsAll.Trim(cutoff)
		for _, c := range s.Arrivals {
			c.Trim(cutoff)
		}
		s.RPCAttempts.Trim(cutoff)
		s.RPCErrors.Trim(cutoff)
		s.RPCRetries.Trim(cutoff)
	}
}

// TelemetryFootprintBytes estimates retained heap bytes across every
// telemetry collector in the app — the number the bounded-memory tests and
// the ursa-sim memory report watch.
func (a *App) TelemetryFootprintBytes() int {
	b := a.E2E.FootprintBytes()
	for _, s := range a.ordered {
		b += s.RespTime.FootprintBytes()
		b += s.RespByClass.FootprintBytes()
		b += s.UtilSamples.FootprintBytes()
		b += s.ArrivalsAll.FootprintBytes()
		for _, c := range s.Arrivals {
			b += c.FootprintBytes()
		}
		b += s.RPCAttempts.FootprintBytes()
		b += s.RPCErrors.FootprintBytes()
		b += s.RPCRetries.FootprintBytes()
	}
	return b
}
