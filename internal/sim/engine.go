package sim

import (
	"fmt"
)

// Event is a generation-counted handle to a scheduled callback. Events are
// returned by the scheduling methods so callers can Cancel them (for example
// a processor-sharing scheduler re-planning completion times, or a timeout
// that was beaten by a response).
//
// Handles are small values, safe to copy and safe to keep after the event
// fired or was canceled: every operation first checks the handle's generation
// against the engine's event arena, so a stale handle is simply a no-op. The
// zero Event is a valid "no event" handle; Cancel and Canceled on it do
// nothing. Once the underlying arena slot has been recycled for a *new*
// event, queries on the old handle report zero values.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// At reports the simulated time the event fires (or would have fired). It
// returns 0 once the slot has been recycled for a newer event.
func (ev Event) At() Time {
	if ev.eng == nil {
		return 0
	}
	sl := &ev.eng.slots[ev.slot]
	if sl.gen != ev.gen {
		return 0
	}
	return sl.at
}

// Canceled reports whether Cancel was called on the event.
func (ev Event) Canceled() bool {
	if ev.eng == nil {
		return false
	}
	sl := &ev.eng.slots[ev.slot]
	return sl.gen == ev.gen && sl.canceled
}

// Cancel prevents the event from firing and immediately releases its arena
// slot for reuse. Canceling an already-fired or already-canceled event is a
// no-op. The queue entry is dropped lazily; when more than half of the queue
// is canceled entries, the queue is compacted in one O(n) sweep.
func (ev Event) Cancel() {
	if ev.eng == nil {
		return
	}
	e := ev.eng
	sl := &e.slots[ev.slot]
	if sl.gen != ev.gen || !sl.pending {
		return
	}
	sl.pending = false
	sl.canceled = true
	sl.fn = nil
	sl.h = nil
	e.free = append(e.free, ev.slot)
	e.stale++
	if e.stale*2 > len(e.heap) && len(e.heap) >= reapMinQueue {
		e.Compact()
	}
}

// reapMinQueue is the queue length below which bulk reaping is not worth the
// sweep; tiny queues self-clean through normal pops.
const reapMinQueue = 16

// Handler receives scheduled callbacks without a per-call closure. Components
// that schedule the same logical callback over and over (a load generator
// arming its next arrival, a ticker re-arming itself, a pooled step machine
// advancing a request) implement Handler once and pass themselves to
// ScheduleHandler/AtHandler: storing a pointer-backed interface in the event
// arena allocates nothing, where building a fresh func() closure per call
// allocates every time.
type Handler interface{ OnEvent() }

// eventSlot is one arena cell. Slots are recycled through a free list; gen
// increments on every (re)allocation, which is what invalidates old handles
// and old queue entries. Exactly one of fn and h is set per lifetime.
type eventSlot struct {
	fn       func()
	h        Handler
	at       Time
	gen      uint64
	pending  bool // scheduled and neither fired nor canceled
	canceled bool // how the last lifetime ended (cleared on reuse)
}

// eventEntry is one queue element of the 4-ary min-heap. It carries the
// ordering key (at, seq) inline so comparisons never chase the arena, plus
// the (slot, gen) pair that says which event lifetime it belongs to. An
// entry whose generation no longer matches its slot — or whose slot is no
// longer pending — is garbage and is skipped (or swept out) without firing.
type eventEntry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint64
}

func entryLess(a, b eventEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the engine's
// goroutine, which is what makes runs bit-for-bit reproducible.
//
// The event queue is a typed 4-ary min-heap of plain value entries over a
// pooled event arena: scheduling allocates nothing in steady state (slots are
// recycled through a free list), and cancellation is O(1) with lazy deletion
// plus bulk compaction.
type Engine struct {
	now   Time
	seq   uint64
	heap  []eventEntry
	slots []eventSlot
	free  []int32
	stale int // canceled-but-unswept entries still in heap
	seed  int64
	// fired counts executed (non-canceled) events, for diagnostics.
	fired uint64
}

// NewEngine returns an engine at time zero. The seed parameterises all RNG
// streams derived through Engine.RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many live (scheduled, not canceled) events are queued.
func (e *Engine) Pending() int { return len(e.heap) - e.stale }

// Compact sweeps canceled entries out of the queue in one O(n) pass and
// restores the heap invariant. It runs automatically when canceled entries
// outnumber live ones; callers may also invoke it on demand.
func (e *Engine) Compact() {
	if e.stale == 0 {
		return
	}
	kept := e.heap[:0]
	for _, en := range e.heap {
		sl := &e.slots[en.slot]
		if sl.gen == en.gen && sl.pending {
			kept = append(kept, en)
		}
	}
	e.heap = kept
	e.stale = 0
	// Standard bottom-up heapify over the surviving entries.
	for i := (len(e.heap) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Schedule runs fn after delay. It panics if delay is negative.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// ScheduleHandler runs h.OnEvent after delay. Unlike Schedule it stores the
// handler interface directly in the event arena, so scheduling a pointer-
// backed handler allocates nothing.
func (e *Engine) ScheduleHandler(delay Time, h Handler) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleHandler with negative delay %v", delay))
	}
	return e.AtHandler(e.now+delay, h)
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) Event {
	sl, ev := e.alloc(t)
	sl.fn = fn
	return ev
}

// AtHandler runs h.OnEvent at absolute time t, which must not be in the past.
func (e *Engine) AtHandler(t Time, h Handler) Event {
	sl, ev := e.alloc(t)
	sl.h = h
	return ev
}

// alloc claims an arena slot and queues it for time t; the caller fills in
// the callback (fn or h).
func (e *Engine) alloc(t Time) (*eventSlot, Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
	}
	e.seq++
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		s = int32(len(e.slots) - 1)
	}
	sl := &e.slots[s]
	sl.gen++
	sl.at = t
	sl.pending = true
	sl.canceled = false
	e.push(eventEntry{at: t, seq: e.seq, slot: s, gen: sl.gen})
	return sl, Event{eng: e, slot: s, gen: sl.gen}
}

// push inserts an entry and sifts it up the 4-ary heap.
func (e *Engine) push(en eventEntry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// popTop removes the minimum entry and restores the heap invariant.
func (e *Engine) popTop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		best := i
		lo := 4*i + 1
		if lo >= n {
			return
		}
		hi := lo + 4
		if hi > n {
			hi = n
		}
		for c := lo; c < hi; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// fireTop consumes the top entry, which the caller has verified is live,
// releases its slot, advances the clock and runs the callback.
func (e *Engine) fireTop(en eventEntry) {
	sl := &e.slots[en.slot]
	fn, h := sl.fn, sl.h
	sl.fn = nil
	sl.h = nil
	sl.pending = false
	e.free = append(e.free, en.slot)
	e.now = en.at
	e.fired++
	if fn != nil {
		fn()
	} else {
		h.OnEvent()
	}
}

// Step executes the next pending event, skipping canceled ones. It returns
// false when no events remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		en := e.heap[0]
		e.popTop()
		sl := &e.slots[en.slot]
		if sl.gen != en.gen || !sl.pending {
			e.stale--
			continue
		}
		e.fireTop(en)
		return true
	}
	return false
}

// RunUntil executes events until the queue is empty or the next event is
// strictly after the deadline; the clock is then advanced to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 {
		en := e.heap[0]
		sl := &e.slots[en.slot]
		if sl.gen != en.gen || !sl.pending {
			e.popTop()
			e.stale--
			continue
		}
		if en.at > deadline {
			break
		}
		e.popTop()
		e.fireTop(en)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Drain runs until no events remain. A maxEvents guard prevents runaway
// models; it panics when exceeded.
func (e *Engine) Drain(maxEvents uint64) {
	var n uint64
	for e.Step() {
		n++
		if n > maxEvents {
			panic("sim: Drain exceeded event budget; model is likely self-perpetuating")
		}
	}
}

// Every schedules fn to run now+period, then every period thereafter, until
// the returned Ticker is stopped.
func (e *Engine) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker is a repeating event; see Engine.Every.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	ev      Event
	stopped bool
}

func (t *Ticker) arm() {
	t.ev = t.engine.ScheduleHandler(t.period, t)
}

// OnEvent implements Handler: one tick. Scheduling the ticker itself (rather
// than a fresh closure per tick) makes periodic samplers allocation-free.
func (t *Ticker) OnEvent() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks and immediately drops the armed event from the
// queue, so a stopped ticker leaves nothing behind to fire as a no-op.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
	t.ev = Event{}
}
