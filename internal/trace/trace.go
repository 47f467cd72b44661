// Package trace implements request-level distributed tracing for the
// simulated cluster — the per-request view of the paper's tracing framework
// (§V.1). A Tracer samples jobs and records one span per service visit:
// queueing, execution, and downstream-wait segments, which is the data the
// §III study's per-tier response time (S0−R0) is derived from. Traces also
// power critical-path analysis: which service contributed the most latency
// to a slow request.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"ursa/internal/sim"
)

// Span is one service visit by one request.
type Span struct {
	Service string
	Class   string
	// Enqueued is when the request arrived at the service (R0).
	Enqueued sim.Time
	// Started is when a worker began the handler.
	Started sim.Time
	// Finished is when the handler completed (S0).
	Finished sim.Time
	// DownstreamWait is time blocked awaiting nested-RPC responses.
	DownstreamWait sim.Time
	// Abandoned marks a span whose caller gave up on it (RPC timeout) or
	// whose request terminally failed (crash, exhausted retries). Abandoned
	// spans carry no meaningful S0−R0 and are excluded from critical-path
	// accounting.
	Abandoned bool
}

// QueueWait is the time spent waiting for a worker.
func (s Span) QueueWait() sim.Time { return s.Started - s.Enqueued }

// ResponseTime is S0−R0 minus downstream wait — the §III per-tier metric.
func (s Span) ResponseTime() sim.Time {
	rt := s.Finished - s.Enqueued - s.DownstreamWait
	if rt < 0 {
		rt = 0
	}
	return rt
}

// OwnTime is handler execution time excluding queueing and downstream wait.
func (s Span) OwnTime() sim.Time {
	ot := s.Finished - s.Started - s.DownstreamWait
	if ot < 0 {
		ot = 0
	}
	return ot
}

// Trace is the set of spans of one job.
type Trace struct {
	JobID    uint64
	Class    string
	Start    sim.Time
	End      sim.Time
	Spans    []Span
	Complete bool
}

// Latency is the end-to-end job latency.
func (t *Trace) Latency() sim.Time { return t.End - t.Start }

// CriticalService reports the service whose cumulative response time is the
// largest share of the trace — the first place to look when a request is
// slow.
func (t *Trace) CriticalService() (string, sim.Time) {
	byService := map[string]sim.Time{}
	for _, s := range t.Spans {
		if s.Abandoned {
			continue
		}
		byService[s.Service] += s.ResponseTime()
	}
	bestSvc, bestT := "", sim.Time(-1)
	names := make([]string, 0, len(byService))
	for n := range byService {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic tie-break
	for _, n := range names {
		if byService[n] > bestT {
			bestSvc, bestT = n, byService[n]
		}
	}
	return bestSvc, bestT
}

// String renders the trace as an indented timeline.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace job=%d class=%s latency=%v spans=%d\n", t.JobID, t.Class, t.Latency(), len(t.Spans))
	for _, s := range t.Spans {
		fmt.Fprintf(&b, "  %-20s queue=%-10v own=%-10v dswait=%-10v\n",
			s.Service+"/"+s.Class, s.QueueWait(), s.OwnTime(), s.DownstreamWait)
	}
	return b.String()
}

// Tracer collects traces for a sampled fraction of jobs.
type Tracer struct {
	// SampleEvery keeps one of every N jobs (1 = all).
	SampleEvery int
	// Cap bounds retained traces (oldest evicted); 0 = unlimited.
	Cap int
	// Exporter, when set, receives every trace the moment it finishes
	// (complete or failed), before retention applies — so spans stream out
	// even on runs whose Cap evicts them from memory moments later.
	Exporter func(*Trace)

	nextID  uint64
	counter int
	open    map[uint64]*Trace
	// Retained traces live in done[head:]; eviction advances head and the
	// slice compacts only when more than half is dead, so a full ring costs
	// amortized O(1) per finished job instead of an O(Cap) realloc.
	done []*Trace
	head int
}

// NewTracer builds a tracer sampling one of every n jobs, retaining at most
// cap completed traces.
func NewTracer(n, cap int) *Tracer {
	if n < 1 {
		n = 1
	}
	return &Tracer{SampleEvery: n, Cap: cap, open: map[uint64]*Trace{}}
}

// StartJob possibly begins a trace for a new job; 0 means "not sampled".
func (tr *Tracer) StartJob(class string, now sim.Time) uint64 {
	tr.counter++
	if tr.counter%tr.SampleEvery != 0 {
		return 0
	}
	tr.nextID++
	id := tr.nextID
	tr.open[id] = &Trace{JobID: id, Class: class, Start: now}
	return id
}

// AddSpan appends a span to an open trace.
func (tr *Tracer) AddSpan(id uint64, s Span) {
	if id == 0 {
		return
	}
	if t, ok := tr.open[id]; ok {
		t.Spans = append(t.Spans, s)
	}
}

// EndJob completes a trace.
func (tr *Tracer) EndJob(id uint64, now sim.Time) { tr.finishJob(id, now, true) }

// FailJob closes the trace of a terminally failed job. The trace is retained
// for analysis but marked incomplete — some spans never happened, others are
// abandoned attempts.
func (tr *Tracer) FailJob(id uint64, now sim.Time) { tr.finishJob(id, now, false) }

func (tr *Tracer) finishJob(id uint64, now sim.Time, complete bool) {
	if id == 0 {
		return
	}
	t, ok := tr.open[id]
	if !ok {
		return
	}
	delete(tr.open, id)
	t.End = now
	t.Complete = complete
	if tr.Exporter != nil {
		tr.Exporter(t)
	}
	tr.done = append(tr.done, t)
	if tr.Cap > 0 && len(tr.done)-tr.head > tr.Cap {
		tr.done[tr.head] = nil
		tr.head++
		if 2*tr.head >= len(tr.done) {
			n := copy(tr.done, tr.done[tr.head:])
			for i := n; i < len(tr.done); i++ {
				tr.done[i] = nil
			}
			tr.done = tr.done[:n]
			tr.head = 0
		}
	}
}

// FlushOpen force-closes every still-open trace as incomplete at time now
// (ascending job ID, so output is deterministic) — the end-of-run sweep
// that surfaces jobs still in flight or abandoned when the simulation
// stopped. The closed traces go through the usual finish path, so the
// Exporter sees them and retention applies.
func (tr *Tracer) FlushOpen(now sim.Time) {
	ids := make([]uint64, 0, len(tr.open))
	for id := range tr.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		tr.finishJob(id, now, false)
	}
}

// Traces returns completed traces (oldest first).
func (tr *Tracer) Traces() []*Trace { return tr.done[tr.head:] }

// SlowestTrace returns the completed trace with the highest latency for a
// class (nil when none).
func (tr *Tracer) SlowestTrace(class string) *Trace {
	var best *Trace
	for _, t := range tr.Traces() {
		if t.Class != class {
			continue
		}
		if best == nil || t.Latency() > best.Latency() {
			best = t
		}
	}
	return best
}
