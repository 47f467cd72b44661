package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public entry points. Times are nanoseconds since the run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root
	Name    string `json:"name"`
	Run     string `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// disabled tracer records nothing.
type tracer struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: t.run,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t.on && id >= 0 {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// selfTime is one span name's total duration minus the time its direct
// children cover, summed over every span with that name.
type selfTime struct {
	Name  string
	Count int
	Self  time.Duration
}

// selfTimes aggregates self time per span name, grouping the per-service
// spans ("profile/<service>") under their prefix. Sibling spans never
// overlap, because the benchmark calls one layer at a time.
func selfTimes(spans []span) []selfTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	agg := map[string]*selfTime{}
	var order []string
	for i, s := range spans {
		name := s.Name
		for j := 0; j < len(name); j++ {
			if name[j] == '/' {
				name = name[:j]
				break
			}
		}
		st := agg[name]
		if st == nil {
			st = &selfTime{Name: name}
			agg[name] = st
			order = append(order, name)
		}
		st.Count++
		st.Self += time.Duration(s.EndNS - s.StartNS - child[i])
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
