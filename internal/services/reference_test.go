package services

import (
	"fmt"

	"ursa/internal/sim"
	"ursa/internal/trace"
)

// This file keeps the original closure-per-hop step interpreter as a test
// oracle: TestFramesMatchReference pins the pooled frame machine (frame.go)
// byte-identical to it, and TestFrameAllocsBelowReference pins the
// allocations the fusion saves.

// useReferenceSteps routes every handler of app through the reference
// interpreter. Call it before injecting load.
func useReferenceSteps(app *App) { app.referenceStart = (*Service).startReference }

// startReference is the reference form of Service.start's handler launch:
// a per-request finish closure plus runStepsReference.
func (s *Service) startReference(rep *Replica, req *Request, steps []Step) {
	started := s.app.Eng.Now()
	var wait sim.Time
	req.finish = func() {
		if req.settled {
			return // a crash already force-completed this request
		}
		req.settled = true
		rep.untrack(req)
		now := s.app.Eng.Now()
		if !req.Failed {
			resp := now - req.arrival - wait
			if resp < 0 {
				resp = 0
			}
			s.RespTime.Add(now, resp.Millis())
			s.RespByClass.Record(now, req.Class, resp.Millis())
		}
		if tr := s.app.Tracer; tr != nil && req.Job != nil && req.Job.traceID != 0 {
			tr.AddSpan(req.Job.traceID, trace.Span{
				Service:        s.spec.Name,
				Class:          req.Class,
				Enqueued:       req.arrival,
				Started:        started,
				Finished:       now,
				DownstreamWait: wait,
				Abandoned:      req.Failed || req.abandoned,
			})
		}
		rep.busyWorkers--
		rep.maybeRetire()
		s.pump()
		req.runOnDone()
	}
	s.app.runStepsReference(req, steps, &wait, req.finish)
}

// runStepsReference executes handler steps sequentially; waitAcc accumulates
// time spent blocked on nested-RPC responses (excluded from the tier's
// measured response time, per Fig. 2's S0−R0 definition). done fires after
// the final step, or as soon as the request terminally fails (a downstream
// call out of retries aborts the rest of the handler).
//
// This is the retained closure-per-hop reference interpreter; the
// production execution path is the pooled step-frame machine in frame.go,
// pinned byte-identical to this one.
func (a *App) runStepsReference(req *Request, steps []Step, waitAcc *sim.Time, done func()) {
	var step func(i int)
	step = func(i int) {
		if i == len(steps) || req.Failed {
			done()
			return
		}
		switch st := steps[i].(type) {
		case Compute:
			ms := st.Dist().Sample(req.svc.rng)
			req.replica.cpu.Run(ms/1e3, func() { step(i + 1) })
		case Call:
			target := a.mustService(st.Service)
			class := req.Class
			if st.Class != "" {
				class = st.Class
			}
			// One error draw per logical call (not per delivery attempt): an
			// application error is deterministic under retries.
			fail := st.ErrorProb > 0 && a.drawError(st.ErrorProb)
			switch st.Mode {
			case NestedRPC:
				if a.res == nil && a.Net == nil {
					// The response-wait clock starts at admission by the
					// downstream ingress; send-blocking before that charges
					// the caller's own response time (backpressure).
					var t0 sim.Time
					rpc := &Request{
						Job:      req.Job,
						Class:    class,
						Priority: req.Priority,
						Failed:   fail,
					}
					rpc.onDone = func() {
						if rpc.Failed {
							req.Failed = true
						}
						*waitAcc += a.Eng.Now() - t0
						step(i + 1)
					}
					target.Send(rpc, func() { t0 = a.Eng.Now() })
				} else {
					a.callNested(req, target, class, fail, waitAcc, func() { step(i + 1) })
				}
			case EventRPC:
				// Block the worker until a daemon slot is granted, then
				// respond immediately while the daemon performs the send
				// (possibly blocking on the downstream window) and awaits
				// the response.
				req.replica.acquireDaemon(func(release func()) {
					req.Job.add()
					if a.res == nil && a.Net == nil {
						rpc := &Request{
							Job:      req.Job,
							Class:    class,
							Priority: req.Priority,
							Failed:   fail,
						}
						rpc.onDone = func() {
							release()
							rpc.jobBranchDone()
						}
						target.Send(rpc, nil)
					} else {
						a.sendEvent(req, target, class, fail, release)
					}
					step(i + 1)
				})
			case MQ:
				req.Job.add()
				mq := &Request{
					Job:      req.Job,
					Class:    class,
					Priority: req.Priority,
					Failed:   fail,
				}
				mq.onDone = mq.jobBranchDone
				target.Enqueue(mq)
				step(i + 1)
			default:
				panic(fmt.Sprintf("services: unknown call mode %v", st.Mode))
			}
		case Spawn:
			target := a.mustService(st.Service)
			a.injectAt(target, st.Class)
			step(i + 1)
		case Par:
			if len(st.Branches) == 0 {
				step(i + 1)
				return
			}
			remaining := len(st.Branches)
			waits := make([]sim.Time, len(st.Branches))
			for bi, br := range st.Branches {
				bi := bi
				a.runStepsReference(req, br, &waits[bi], func() {
					remaining--
					if remaining == 0 {
						// Branches overlap in time; count the longest
						// branch wait rather than the sum.
						max := sim.Time(0)
						for _, w := range waits {
							if w > max {
								max = w
							}
						}
						*waitAcc += max
						step(i + 1)
					}
				})
			}
		default:
			panic(fmt.Sprintf("services: unknown step type %T", st))
		}
	}
	step(0)
}
