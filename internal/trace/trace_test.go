package trace

import (
	"strings"
	"testing"

	"ursa/internal/sim"
)

func span(svc string, enq, start, fin, wait sim.Time) Span {
	return Span{Service: svc, Class: "c", Enqueued: enq, Started: start, Finished: fin, DownstreamWait: wait}
}

func TestSpanMetrics(t *testing.T) {
	s := span("a", 0, 2*sim.Millisecond, 10*sim.Millisecond, 3*sim.Millisecond)
	if s.QueueWait() != 2*sim.Millisecond {
		t.Fatalf("QueueWait = %v", s.QueueWait())
	}
	if s.ResponseTime() != 7*sim.Millisecond {
		t.Fatalf("ResponseTime = %v", s.ResponseTime())
	}
	if s.OwnTime() != 5*sim.Millisecond {
		t.Fatalf("OwnTime = %v", s.OwnTime())
	}
}

func TestSpanClampsNegative(t *testing.T) {
	s := span("a", 0, 0, 2*sim.Millisecond, 5*sim.Millisecond)
	if s.ResponseTime() != 0 || s.OwnTime() != 0 {
		t.Fatal("negative times should clamp to 0")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3, 0)
	sampled := 0
	for i := 0; i < 9; i++ {
		if id := tr.StartJob("c", 0); id != 0 {
			sampled++
			tr.EndJob(id, sim.Second)
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9, want 3", sampled)
	}
	if len(tr.Traces()) != 3 {
		t.Fatalf("completed traces = %d", len(tr.Traces()))
	}
}

func TestTracerCapEvictsOldest(t *testing.T) {
	tr := NewTracer(1, 2)
	for i := 0; i < 5; i++ {
		id := tr.StartJob("c", sim.Time(i))
		tr.EndJob(id, sim.Time(i)+sim.Second)
	}
	got := tr.Traces()
	if len(got) != 2 {
		t.Fatalf("retained = %d", len(got))
	}
	if got[0].Start != 3 || got[1].Start != 4 {
		t.Fatalf("wrong traces retained: %v %v", got[0].Start, got[1].Start)
	}
}

func TestCriticalService(t *testing.T) {
	tr := NewTracer(1, 0)
	id := tr.StartJob("c", 0)
	tr.AddSpan(id, span("fast", 0, 0, 2*sim.Millisecond, 0))
	tr.AddSpan(id, span("slow", 0, 0, 50*sim.Millisecond, 0))
	tr.AddSpan(id, span("slow", 0, 0, 30*sim.Millisecond, 0)) // cumulative 80ms
	tr.EndJob(id, 100*sim.Millisecond)
	trc := tr.Traces()[0]
	svc, total := trc.CriticalService()
	if svc != "slow" || total != 80*sim.Millisecond {
		t.Fatalf("critical = %s/%v", svc, total)
	}
	if trc.Latency() != 100*sim.Millisecond {
		t.Fatalf("latency = %v", trc.Latency())
	}
	if !strings.Contains(trc.String(), "slow/c") {
		t.Fatal("String missing span line")
	}
}

func TestSlowestAndBreakdown(t *testing.T) {
	tr := NewTracer(1, 0)
	for i, lat := range []sim.Time{10 * sim.Millisecond, 90 * sim.Millisecond, 40 * sim.Millisecond} {
		id := tr.StartJob("c", 0)
		tr.AddSpan(id, span("svc", 0, 0, lat, 0))
		tr.EndJob(id, lat)
		_ = i
	}
	slow := tr.SlowestTrace("c")
	if slow == nil || slow.Latency() != 90*sim.Millisecond {
		t.Fatalf("slowest = %v", slow)
	}
	if svc, tot := slow.CriticalService(); svc != "svc" || tot != 90*sim.Millisecond {
		t.Fatalf("slowest trace's critical service = %s/%v, want svc/90ms", svc, tot)
	}
	if tr.SlowestTrace("absent") != nil {
		t.Fatal("absent class should return nil")
	}
	if len(tr.Traces()) != 3 {
		t.Fatal("Traces wrong")
	}
}

func TestUnsampledOpsAreNoops(t *testing.T) {
	tr := NewTracer(2, 0)
	tr.AddSpan(0, span("a", 0, 0, sim.Second, 0))
	tr.EndJob(0, sim.Second)
	if len(tr.Traces()) != 0 {
		t.Fatal("noop ops created traces")
	}
}

func TestFailJobMarksTraceIncomplete(t *testing.T) {
	tr := NewTracer(1, 0)
	id := tr.StartJob("c", 0)
	tr.AddSpan(id, span("a", 0, 0, 10*sim.Millisecond, 0))
	tr.FailJob(id, 10*sim.Millisecond)
	got := tr.Traces()
	if len(got) != 1 {
		t.Fatalf("traces = %d, want 1", len(got))
	}
	if got[0].Complete {
		t.Fatal("failed trace marked complete")
	}
	if got[0].End != 10*sim.Millisecond {
		t.Fatalf("end = %v", got[0].End)
	}
	if tr.FailJob(999, 0); len(tr.Traces()) != 1 {
		t.Fatal("failing an unknown job created a trace")
	}
}

func TestCriticalPathSkipsAbandonedSpans(t *testing.T) {
	tr := NewTracer(1, 0)
	id := tr.StartJob("c", 0)
	// An abandoned retry attempt with a huge S0−R0 must not dominate.
	ab := span("a", 0, 0, 100*sim.Millisecond, 0)
	ab.Abandoned = true
	tr.AddSpan(id, ab)
	tr.AddSpan(id, span("b", 0, 0, 30*sim.Millisecond, 0))
	tr.AddSpan(id, span("a", 0, 0, 20*sim.Millisecond, 0))
	tr.EndJob(id, 100*sim.Millisecond)

	svc, tot := tr.Traces()[0].CriticalService()
	if svc != "b" || tot != 30*sim.Millisecond {
		t.Fatalf("critical = %s/%v, want b/30ms (abandoned span excluded)", svc, tot)
	}
	// With b gone, a's share is its completed span alone.
	onlyA := Trace{Spans: []Span{ab, span("a", 0, 0, 20*sim.Millisecond, 0)}}
	if svc, tot := onlyA.CriticalService(); svc != "a" || tot != 20*sim.Millisecond {
		t.Fatalf("critical = %s/%v, want a/20ms (abandoned span excluded)", svc, tot)
	}
}
