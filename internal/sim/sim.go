// Package sim is the deterministic discrete-event core shared by the
// litegpu simulators: an event calendar, a simulated clock,
// closure-free typed event scheduling with cheap cancellation, and
// seeded randomness through mathx so every run is byte-identical —
// including under the parallel sweep, where each grid cell derives its
// own seed via mathx.DeriveSeed.
//
// Determinism is the whole point. Events fire in (time, priority,
// insertion order) order: priorities give simulators explicit control
// over same-timestamp phases (arrivals before completions before
// dispatch), and the insertion-order tiebreak makes equal-priority ties
// FIFO rather than heap-arbitrary. No wall clock, no global RNG, no map
// iteration touches event order.
//
// The calendar is a small, fixed set of queues merged at their heads.
// Queue 0 (MainQueue) is a 4-ary min-heap that accepts any event; a
// simulator may add more with NewQueue — a FIFOQueue ring for an event
// class that is booked in nondecreasing (time, priority) order (a
// dispatch pass at now, deadlines a fixed timeout after their
// arrival), or a HeapQueue to keep an unordered backlog (client
// retries) out of the main heap. Every event carries one global
// insertion number, and Run, Step and Next always take the smallest
// (time, priority, insertion) head across queues, so the routing is
// invisible: an event fires at exactly the same point whichever queue
// holds it. A FIFO push that would break its ring's order falls through
// to the main heap, so correctness never depends on the caller's
// routing. Hot completions then sift only through the heap that holds
// them, not through the cold backlog of deadlines and retries.
//
// The calendar is allocation-free at steady state. Events live in a
// reusable slab indexed by small value entries; scheduling recycles
// slots through a free list, and cancellation resolves the EventID's
// (slot, generation) pair directly against the slab — there is no
// per-event node, no closure, and no id map. A heap entry is removed on
// Cancel; a cancelled FIFO entry becomes a generation tombstone that is
// skipped when it reaches its ring's head. The hot-path API is
// ScheduleCall(at, prio, h, arg) and ScheduleOn(q, at, prio, h, arg):
// simulators bind their handler funcs once at setup and pass per-event
// context through the arg word, so a warm engine schedules and fires
// events without touching the Go heap. Schedule(at, prio, fn) remains
// as a convenience for cold paths and tests; its adapter closure is the
// only allocation in the package.
package sim

import (
	"fmt"
	"math"

	"litegpu/internal/mathx"
)

// EventID names a scheduled event for cancellation. It packs the
// event's slab slot with the slot's generation at scheduling time, so a
// stale id (the event ran, or was cancelled, and the slot moved on)
// simply fails the generation check. The zero EventID is never issued,
// so it can mark "no event pending".
type EventID uint64

// Handler is a pre-bound event callback: `now` is the event's firing
// time (== Engine.Now()) and `arg` is the word passed to ScheduleCall,
// typically an encoded instance or pool index. Binding handlers once
// and routing per-event context through arg is what keeps the hot path
// closure-free.
type Handler func(now float64, arg uint64)

// Queue names one of an engine's calendar queues. The zero Queue is
// MainQueue.
type Queue int32

// MainQueue is the engine's built-in heap, the queue ScheduleCall books
// onto and every misordered FIFO push falls through to.
const MainQueue Queue = 0

// QueueKind selects a calendar queue's structure.
type QueueKind uint8

const (
	// HeapQueue accepts events in any order: a 4-ary min-heap.
	HeapQueue QueueKind = iota
	// FIFOQueue is a ring for events booked in nondecreasing (time,
	// priority) order: push and pop are O(1). A push that would land
	// before the ring's tail goes to MainQueue instead.
	FIFOQueue
)

// event is one slab slot: the callback state of a scheduled (or freed)
// event. Ordering state lives in the queue entries; q and pos link back
// from the slab so Cancel can find an event without a search.
type event struct {
	h   Handler
	arg uint64
	gen uint32 // bumped every time the event is fired or cancelled
	pos int32  // index in a heap queue; unused on a FIFO ring
	q   int32  // queue holding the event; -1 when free or cancelled
}

// heapEnt is one calendar entry: everything the ordering needs, kept as
// a small value so sift operations never chase slab pointers.
type heapEnt struct {
	at   float64
	seq  uint64 // insertion-order tiebreak
	prio int32
	slot int32
}

// queue is one calendar queue. A heap keeps its entries in ents[:n]
// with head fixed at 0; a FIFO ring keeps them in ents[head:head+n]
// modulo len(ents), a power of two, tombstones included. Either way
// ents[head] is the queue's earliest live entry whenever n > 0.
type queue struct {
	ents []heapEnt
	head int
	n    int
	fifo bool
}

// Engine is a discrete-event simulation: a clock plus a calendar of
// pending events. The zero value is not usable; call New.
type Engine struct {
	now   float64
	seq   uint64
	fired uint64
	live  int
	qs    []queue
	slab  []event
	free  []int32
	rng   *mathx.RNG
}

// New returns an engine at time zero whose RNG is seeded with seed and
// whose calendar holds only MainQueue. Simulators that need several
// independent streams should derive them with RNG().Split or
// mathx.DeriveSeed rather than sharing one stream across components, so
// adding draws in one component cannot perturb another.
func New(seed uint64) *Engine {
	return &Engine{rng: mathx.NewRNG(seed), qs: make([]queue, 1)}
}

// NewQueue adds a calendar queue of the given kind and returns its
// handle. Queues are set up once, before the run: each one adds a
// comparison to every event fired, so a calendar should stay at a
// handful of queues, one per hot or bulky event class.
func (e *Engine) NewQueue(kind QueueKind) Queue {
	e.qs = append(e.qs, queue{fifo: kind == FIFOQueue})
	return Queue(len(e.qs) - 1)
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's seeded generator.
func (e *Engine) RNG() *mathx.RNG { return e.rng }

// Pending returns the number of scheduled events across every queue;
// cancelled FIFO tombstones do not count.
func (e *Engine) Pending() int { return e.live }

// EventsFired returns the count of events executed so far — a cheap
// progress measure for observability probes and heartbeats.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Next peeks at the earliest pending event time.
func (e *Engine) Next() (at float64, ok bool) {
	q := e.top()
	if q == nil {
		return 0, false
	}
	return q.ents[q.head].at, true
}

// ScheduleCall books h(at, arg) at absolute time `at` with the given
// priority on MainQueue. Among events at the same time, lower priority
// runs first; equal priorities run in scheduling order. Scheduling in
// the past, at NaN, or at -Inf panics — it is always a simulator bug,
// and silently clamping it would corrupt causality. +Inf is legal: the
// step timers return it for an infeasible step, and such an event never
// fires within a finite horizon.
//
// This is the allocation-free hot path: h should be a handler bound
// once at simulator setup (a stored method value), with per-event
// context packed into arg.
//
//litegpu:hotpath
func (e *Engine) ScheduleCall(at float64, prio int, h Handler, arg uint64) EventID {
	return e.ScheduleOn(MainQueue, at, prio, h, arg)
}

// ScheduleOn is ScheduleCall on queue q. The firing order does not
// depend on q; the queue only decides what the event's bookkeeping
// costs. On a FIFOQueue whose tail sorts after (at, prio), the event
// goes to MainQueue instead.
//
//litegpu:hotpath
func (e *Engine) ScheduleOn(q Queue, at float64, prio int, h Handler, arg uint64) EventID {
	if math.IsNaN(at) || math.IsInf(at, -1) || at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slab = append(e.slab, event{gen: 1, q: -1})
		slot = int32(len(e.slab) - 1)
	}
	ev := &e.slab[slot]
	ev.h, ev.arg = h, arg
	e.live++
	ent := heapEnt{at: at, seq: e.seq, prio: int32(prio), slot: slot}
	qu := &e.qs[q]
	if qu.fifo && qu.n > 0 && less(&ent, &qu.ents[(qu.head+qu.n-1)&(len(qu.ents)-1)]) {
		q, qu = MainQueue, &e.qs[MainQueue]
	}
	ev.q = int32(q)
	if qu.fifo {
		e.pushRing(qu, ent)
	} else {
		qu.ents = append(qu.ents, ent)
		qu.n++
		e.siftUp(qu.ents, qu.n-1, ent)
	}
	return EventID(uint64(ev.gen)<<32 | uint64(uint32(slot)))
}

// pushRing appends ent at a FIFO ring's tail, doubling the ring when it
// is full (warm-up growth; the ring never shrinks).
//
//litegpu:hotpath
func (e *Engine) pushRing(q *queue, ent heapEnt) {
	if q.n == len(q.ents) {
		grown := make([]heapEnt, max(16, 2*len(q.ents))) //litegpu:alloc-ok ring doubling: warm-up growth to the high-water mark, amortized-zero per the pins
		for i := 0; i < q.n; i++ {
			grown[i] = q.ents[(q.head+i)&(len(q.ents)-1)]
		}
		q.ents, q.head = grown, 0
	}
	q.ents[(q.head+q.n)&(len(q.ents)-1)] = ent
	q.n++
}

// Schedule books fn to run at absolute time `at`; see ScheduleCall for
// the ordering contract. The closure adapter allocates, so hot loops
// should prefer ScheduleCall — Schedule exists for cold paths and
// tests.
func (e *Engine) Schedule(at float64, prio int, fn func(now float64)) EventID {
	return e.ScheduleCall(at, prio, func(now float64, _ uint64) { fn(now) }, 0)
}

// ScheduleAfter books fn at Now()+delay. Negative delays panic via
// ScheduleCall.
func (e *Engine) ScheduleAfter(delay float64, prio int, fn func(now float64)) EventID {
	return e.Schedule(e.now+delay, prio, fn)
}

// Cancel removes a pending event. It reports false when the event
// already ran, was already cancelled, or never existed — cancelling a
// completed event is a legal no-op, which is what lets simulators keep
// "the completion I booked" handles without tracking their lifecycle.
//
//litegpu:hotpath
func (e *Engine) Cancel(id EventID) bool {
	slot := uint32(id)
	gen := uint32(id >> 32)
	if uint64(slot) >= uint64(len(e.slab)) {
		return false
	}
	ev := &e.slab[slot]
	if ev.gen != gen || ev.q < 0 {
		return false
	}
	q := &e.qs[ev.q]
	if !q.fifo {
		e.removeAt(q, int(ev.pos))
		return true
	}
	// The ring entry stays behind as a tombstone: the slot is retired
	// (so the id and the entry both go stale) but only returns to the
	// free list once the entry is skipped at the head.
	e.retire(int32(slot))
	e.skipDead(q)
	return true
}

// Run executes events in order until the calendar is empty or the next
// event lies beyond `until` (events at exactly `until` run). The clock
// advances to each event's time as it fires; it does not advance past
// the last executed event, matching the convention that a horizon ends
// the observation window rather than the world. Returns the number of
// events executed.
//
// Handlers may schedule and cancel freely, including at the current
// time; newly scheduled events at or before `until` run in the same
// call.
//
//litegpu:hotpath
func (e *Engine) Run(until float64) int {
	n := 0
	for {
		q := e.top()
		if q == nil || q.ents[q.head].at > until {
			return n
		}
		e.fire(q)
		n++
	}
}

// Step executes exactly one event if one is pending, reporting whether
// it did. Tests use it to observe intermediate states.
//
//litegpu:hotpath
func (e *Engine) Step() bool {
	q := e.top()
	if q == nil {
		return false
	}
	e.fire(q)
	return true
}

// top returns the queue whose head is the calendar's earliest event, or
// nil when nothing is pending.
//
//litegpu:hotpath
func (e *Engine) top() *queue {
	var best *queue
	for i := range e.qs {
		q := &e.qs[i]
		if q.n > 0 && (best == nil || less(&q.ents[q.head], &best.ents[best.head])) {
			best = q
		}
	}
	return best
}

// fire pops q's head, frees its slot, advances the clock, and invokes
// the handler. The handler state is copied out before the slot is
// recycled, so handlers may schedule freely (including into the slot
// they just vacated).
//
//litegpu:hotpath
func (e *Engine) fire(q *queue) {
	top := q.ents[q.head]
	ev := &e.slab[top.slot]
	h, arg := ev.h, ev.arg
	if q.fifo {
		e.retire(top.slot)
		e.free = append(e.free, top.slot)
		q.head = (q.head + 1) & (len(q.ents) - 1)
		q.n--
		e.skipDead(q)
	} else {
		e.removeAt(q, 0)
	}
	e.now = top.at
	e.fired++
	h(top.at, arg)
}

// retire ends a live event's tenure in its slot: the generation bump
// makes every outstanding EventID for it stale. The caller decides when
// the slot rejoins the free list.
//
//litegpu:hotpath
func (e *Engine) retire(slot int32) {
	ev := &e.slab[slot]
	ev.gen++
	ev.q = -1
	ev.h = nil
	ev.arg = 0
	e.live--
}

// skipDead pops cancelled entries off a FIFO ring's head, returning
// their slots to the free list, so the head is live or the ring empty.
//
//litegpu:hotpath
func (e *Engine) skipDead(q *queue) {
	for q.n > 0 {
		slot := q.ents[q.head].slot
		if e.slab[slot].q >= 0 {
			return
		}
		e.free = append(e.free, slot)
		q.head = (q.head + 1) & (len(q.ents) - 1)
		q.n--
	}
}

// Snapshot is a frozen copy of an Engine's complete state — clock,
// insertion counter, every calendar queue, the slab with its slot
// generations, the free list, and the RNG stream — taken by
// Engine.Snapshot and replayed by Engine.Restore. It is immutable after
// capture: restoring never mutates the snapshot, so one snapshot
// supports any number of forks.
//
// Handler values are copied as-is. A snapshot is therefore only
// meaningful for in-place restore — Restore on the same Engine whose
// simulator objects (the handler receivers) still exist. That is
// exactly the planner's fork pattern: run, snapshot at the divergence
// point, finish the run, restore, perturb one input, run again.
type Snapshot struct {
	now   float64
	seq   uint64
	fired uint64
	live  int
	qs    []queue // rings unrolled: head 0, len(ents) == n
	slab  []event
	free  []int32
	rng   uint64
}

// Now returns the snapshot's frozen clock.
func (s *Snapshot) Now() float64 { return s.now }

// Snapshot returns a deep copy of the engine's current state. Slot
// generations are included, so EventIDs held by the simulator remain
// valid (or correctly stale) after a Restore.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		now:   e.now,
		seq:   e.seq,
		fired: e.fired,
		live:  e.live,
		qs:    make([]queue, len(e.qs)),
		slab:  append([]event(nil), e.slab...),
		free:  append([]int32(nil), e.free...),
		rng:   e.rng.State(),
	}
	for i := range e.qs {
		q := &e.qs[i]
		ents := make([]heapEnt, q.n)
		if q.fifo {
			for j := range ents {
				ents[j] = q.ents[(q.head+j)&(len(q.ents)-1)]
			}
		} else {
			copy(ents, q.ents)
		}
		s.qs[i] = queue{ents: ents, n: q.n, fifo: q.fifo}
	}
	return s
}

// Restore rewinds the engine to a snapshot taken from it earlier,
// reusing the engine's existing backing storage where capacity allows.
// The snapshot itself is untouched and may be restored again.
func (e *Engine) Restore(s *Snapshot) {
	e.now = s.now
	e.seq = s.seq
	e.fired = s.fired
	e.live = s.live
	if len(e.qs) != len(s.qs) {
		e.qs = make([]queue, len(s.qs))
	}
	for i := range s.qs {
		src, dst := &s.qs[i], &e.qs[i]
		if src.fifo {
			if !dst.fifo || len(dst.ents) < src.n {
				dst.ents = make([]heapEnt, ringSize(src.n))
			}
			copy(dst.ents, src.ents)
		} else {
			dst.ents = append(dst.ents[:0], src.ents...)
		}
		dst.head, dst.n, dst.fifo = 0, src.n, src.fifo
	}
	e.slab = append(e.slab[:0], s.slab...)
	e.free = append(e.free[:0], s.free...)
	e.rng.SetState(s.rng)
}

// ringSize is the smallest ring (a power of two, at least 16) that
// holds n entries.
func ringSize(n int) int {
	size := 16
	for size < n {
		size *= 2
	}
	return size
}

// less orders the calendar: earlier time, then lower priority, then
// earlier scheduling.
//
//litegpu:hotpath
func less(a, b *heapEnt) bool {
	if mathx.ExactNe(a.at, b.at) {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// siftUp moves ent from the hole at index i toward the root of the
// 4-ary heap h, shifting larger parents down into the hole, and records
// every moved entry's position in the slab.
//
//litegpu:hotpath
func (e *Engine) siftUp(h []heapEnt, i int, ent heapEnt) {
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&ent, &h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slab[h[i].slot].pos = int32(i)
		i = parent
	}
	h[i] = ent
	e.slab[ent.slot].pos = int32(i)
}

// siftDown moves ent from the hole at index i toward the leaves of the
// 4-ary heap h, shifting the smallest child up into the hole.
//
//litegpu:hotpath
func (e *Engine) siftDown(h []heapEnt, i int, ent heapEnt) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &ent) {
			break
		}
		h[i] = h[m]
		e.slab[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = ent
	e.slab[ent.slot].pos = int32(i)
}

// removeAt deletes the entry at index i of heap queue q, recycles its
// slab slot, and refills the hole with the heap's last entry.
//
//litegpu:hotpath
func (e *Engine) removeAt(q *queue, i int) {
	slot := q.ents[i].slot
	e.retire(slot)
	e.free = append(e.free, slot)
	last := q.n - 1
	moved := q.ents[last]
	q.ents = q.ents[:last]
	q.n = last
	if i == last {
		return
	}
	if i > 0 && less(&moved, &q.ents[(i-1)/4]) {
		e.siftUp(q.ents, i, moved)
	} else {
		e.siftDown(q.ents, i, moved)
	}
}
