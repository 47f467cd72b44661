package stats

import (
	"math"
	"math/rand"
)

// Dist is a sampleable positive distribution, used for service times.
type Dist interface {
	// Sample draws one value using the supplied RNG.
	Sample(r *rand.Rand) float64
	// Mean reports the distribution mean.
	Mean() float64
}

// LogNormal is a log-normal distribution with log-space parameters Mu and
// Sigma. Microservice CPU service times are heavy-tailed; log-normal is the
// standard model and is what gives the simulated tiers realistic p99/p50
// ratios.
type LogNormal struct {
	Mu, Sigma float64
}

// LogNormalFromMeanCV builds a log-normal with the given (linear-space)
// mean and coefficient of variation cv = std/mean.
func LogNormalFromMeanCV(mean, cv float64) LogNormal {
	if mean <= 0 {
		panic("stats: LogNormalFromMeanCV requires mean > 0")
	}
	if cv < 0 {
		panic("stats: LogNormalFromMeanCV requires cv >= 0")
	}
	s2 := math.Log(1 + cv*cv)
	return LogNormal{
		Mu:    math.Log(mean) - s2/2,
		Sigma: math.Sqrt(s2),
	}
}

// Sample draws from the distribution.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean reports exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Exponential is an exponential distribution with the given Rate (1/mean),
// used for inter-arrival times of the Poisson load generators.
type Exponential struct {
	Rate float64
}

// Sample draws from the distribution.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// Mean reports 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Deterministic always returns Value; useful in tests.
type Deterministic struct {
	Value float64
}

// Sample returns the fixed value.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }

// Mean returns the fixed value.
func (d Deterministic) Mean() float64 { return d.Value }
