// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the foundation of the repository: the simulated microservice
// cluster, the load generators, and every experiment harness schedule their
// work as events on a single Engine. Simulated time is completely decoupled
// from wall-clock time, so hours of "cluster time" (for example the 166-hour
// ML data-collection runs of Table V) execute in seconds.
package sim

import (
	"time"
)

// Time is a point in simulated time, expressed as nanoseconds since the
// start of the simulation. The zero Time is the simulation epoch.
type Time int64

// Common durations, usable as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// FromDuration converts a time.Duration into a simulated duration.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts t, interpreted as a duration, to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Minutes reports t as floating-point minutes.
func (t Time) Minutes() float64 { return float64(t) / float64(Minute) }

// Hours reports t as floating-point hours.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// String formats t with time.Duration semantics ("1.5s", "3m20s", ...).
func (t Time) String() string { return time.Duration(t).String() }

// Seconds2Time converts floating point seconds to a Time delta.
func Seconds2Time(s float64) Time { return Time(s * float64(Second)) }

// Millis2Time converts floating point milliseconds to a Time delta.
func Millis2Time(ms float64) Time { return Time(ms * float64(Millisecond)) }
