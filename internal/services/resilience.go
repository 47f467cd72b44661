package services

import (
	"math"

	"ursa/internal/sim"
)

// NetInjector intercepts inter-service RPC delivery for fault injection.
// Implementations live outside this package (internal/faults); services only
// consults the hook on each resilient send.
type NetInjector interface {
	// Intercept reports the added delivery latency and whether the message
	// is dropped outright, for one src→dst RPC at the current simulated
	// time.
	Intercept(src, dst string) (delay sim.Time, drop bool)
}

// ResiliencePolicy is the client-side protection applied to every nested-
// and event-RPC in the application: a per-attempt timeout and bounded
// retries with exponential backoff and deterministic jitter. MQ deliveries
// are exempt — the broker owns durability there.
type ResiliencePolicy struct {
	// TimeoutMs bounds each delivery attempt; 0 disables timeouts (and with
	// them any recovery from dropped messages or crashed callees).
	TimeoutMs float64
	// MaxRetries bounds re-deliveries after the first attempt.
	MaxRetries int
	// BackoffBaseMs is the first retry's backoff; attempt k waits
	// base·2^(k−1), capped at BackoffMaxMs.
	BackoffBaseMs float64
	BackoffMaxMs  float64
	// JitterFrac spreads each backoff uniformly within ±frac of itself,
	// drawn from the sim RNG — deterministic for a fixed seed.
	JitterFrac float64
}

func (p *ResiliencePolicy) applyDefaults() {
	if p.TimeoutMs <= 0 {
		p.TimeoutMs = 1000
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBaseMs <= 0 {
		p.BackoffBaseMs = 25
	}
	if p.BackoffMaxMs <= 0 {
		p.BackoffMaxMs = 1000
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
}

// SetResilience enables client-side RPC timeouts and retries for every
// nested- and event-RPC in the app. Zero-valued fields take defaults. Note
// that enabling the policy schedules a timeout event per RPC attempt, so a
// resilient run is not event-for-event identical to an unprotected one even
// when no fault ever fires — compare resilient runs with resilient runs.
func (a *App) SetResilience(p ResiliencePolicy) {
	p.applyDefaults()
	a.res = &p
	a.resRNG = a.Eng.RNG("resilience/" + a.Spec.Name)
}

// backoffDelay computes the backoff before retry number `attempt` (1-based
// over completed attempts) with deterministic jitter.
func (a *App) backoffDelay(attempt int) sim.Time {
	p := a.res
	ms := p.BackoffBaseMs * math.Pow(2, float64(attempt-1))
	if ms > p.BackoffMaxMs {
		ms = p.BackoffMaxMs
	}
	if p.JitterFrac > 0 {
		ms *= 1 + p.JitterFrac*(2*a.resRNG.Float64()-1)
	}
	return sim.Millis2Time(ms)
}

// rpcAttempts drives the shared resilient-delivery loop: build a fresh
// Request per attempt (newReq also returns the Send `accepted` callback),
// inject network faults on the edge, arm the per-attempt timeout, and retry
// with backoff until success or exhaustion. outcome(failed) fires exactly
// once — unless a message is dropped (or a callee dies) with no timeout
// configured, in which case the call hangs forever, exactly like an
// unprotected client.
func (a *App) rpcAttempts(src string, target *Service, newReq func() (*Request, func()), outcome func(failed bool)) {
	attempt := 0
	var try func()
	retry := func() {
		if a.res == nil || attempt > a.res.MaxRetries {
			outcome(true)
			return
		}
		target.RPCRetries.Inc(a.Eng.Now(), 1)
		a.Eng.Schedule(a.backoffDelay(attempt), try)
	}
	try = func() {
		attempt++
		target.RPCAttempts.Inc(a.Eng.Now(), 1)
		rpc, accepted := newReq()
		settled := false
		var timer sim.Event
		rpc.onDone = func() {
			if settled {
				return // response landed after the caller gave up
			}
			settled = true
			timer.Cancel()
			if rpc.Failed {
				// The callee's handler aborted (its own downstream failed,
				// or its replica crashed mid-request): an error response.
				target.RPCErrors.Inc(a.Eng.Now(), 1)
				retry()
				return
			}
			outcome(false)
		}
		dropped := false
		var delay sim.Time
		if a.Net != nil {
			delay, dropped = a.Net.Intercept(src, target.Name())
		}
		deliver := func() { target.Send(rpc, accepted) }
		switch {
		case dropped:
			// Lost in the network: only the timeout can recover the call.
		case delay > 0:
			a.Eng.Schedule(delay, deliver)
		default:
			deliver()
		}
		if a.res != nil && a.res.TimeoutMs > 0 {
			timer = a.Eng.Schedule(sim.Millis2Time(a.res.TimeoutMs), func() {
				if settled {
					return
				}
				settled = true
				// The attempt may still be queued or running at the callee;
				// flag it so its late span stays out of the critical path.
				rpc.abandoned = true
				target.RPCErrors.Inc(a.Eng.Now(), 1)
				retry()
			})
		} else if dropped {
			target.RPCErrors.Inc(a.Eng.Now(), 1)
		}
	}
	try()
}

// callNested delivers one logical nested-RPC call under the app's resilience
// policy and network injector. cont runs exactly once: after a successful
// response (downstream wait accounted), or with req.Failed set once attempts
// are exhausted — the calling handler then aborts. fail pre-marks every
// delivery attempt as an application error (Call.ErrorProb): the callee
// rejects each resend too, so the call exhausts its retries and fails.
func (a *App) callNested(req *Request, target *Service, class string, fail bool, waitAcc *sim.Time, cont func()) {
	var t0 sim.Time
	admitted := false
	cur := 0
	a.rpcAttempts(req.svc.Name(), target, func() (*Request, func()) {
		cur++
		mine := cur
		admitted = false
		return &Request{Job: req.Job, Class: class, Priority: req.Priority, Failed: fail},
			func() {
				// Ghost admissions of abandoned attempts must not restart
				// the live attempt's wait clock.
				if mine == cur {
					admitted = true
					t0 = a.Eng.Now()
				}
			}
	}, func(failed bool) {
		if failed {
			req.Failed = true
		} else if admitted {
			*waitAcc += a.Eng.Now() - t0
		}
		cont()
	})
}

// sendEvent is callNested for event-RPC branches: the caller's handler has
// already responded, so a terminal failure fails the job's branch rather
// than aborting the caller.
func (a *App) sendEvent(req *Request, target *Service, class string, fail bool, release func()) {
	job := req.Job
	a.rpcAttempts(req.svc.Name(), target, func() (*Request, func()) {
		return &Request{Job: job, Class: class, Priority: req.Priority, Failed: fail}, nil
	}, func(failed bool) {
		release()
		if failed {
			job.fail()
		}
		job.branchDone()
	})
}
