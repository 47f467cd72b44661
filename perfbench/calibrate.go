package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// The machine the benchmark runs on is shared, and its speed shifts: at a
// fixed seed the same child process has run 1.6–2 times slower for tens of
// minutes while other tenants were busy, with no steal time and its own CPU
// time inflated just as much. A median over the runs of one invocation
// cannot remove a shift that lasts longer than the invocation. So the
// orchestrator measures the host's speed with a fixed reference computation
// before every child and after the last, and reports host times at a
// nominal speed: raw × refNominal ÷ (median reference time). The reference
// is this file's own code, the same kind of work as the simulator (an event
// heap, a keyed accumulator, small allocations), and shares no code with the
// program, so no change to the program can move it. The raw values and the
// host factor are printed next to the scaled ones.

// refNominal is the reference's time, in seconds, at nominal speed: its
// median on a 2-vCPU Intel Xeon guest while that host was quiet.
const refNominal = 0.115

// refEvent is one pending event of the reference simulation.
type refEvent struct {
	at  float64
	key int
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refSink keeps the reference's result live.
var refSink float64

// referenceSeconds times one pass of the reference computation: 300 000
// events popped from and pushed onto a heap of 20 000, each added to one of
// 50 000 accumulators.
func referenceSeconds() float64 {
	t := time.Now()
	rng := rand.New(rand.NewSource(42))
	h := make(refHeap, 0, 20000)
	acc := map[int]float64{}
	for i := 0; i < 20000; i++ {
		heap.Push(&h, &refEvent{at: rng.Float64(), key: rng.Intn(50000)})
	}
	for i := 0; i < 300000; i++ {
		e := heap.Pop(&h).(*refEvent)
		acc[e.key] += e.at
		heap.Push(&h, &refEvent{at: e.at + rng.ExpFloat64(), key: rng.Intn(50000)})
	}
	refSink += acc[7]
	return time.Since(t).Seconds()
}
