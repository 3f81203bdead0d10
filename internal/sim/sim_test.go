package sim

import (
	"reflect"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New(1)
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, 0, func(now float64) { got = append(got, now) })
	}
	if n := e.Run(10); n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
	want := []float64{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fire order %v, want %v", got, want)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5 (time of last event, not the horizon)", e.Now())
	}
}

func TestSameTimePriorityThenFIFO(t *testing.T) {
	e := New(1)
	var got []string
	// All at t=1: priority orders phases; within a priority, insertion
	// order wins — never heap-internal order.
	e.Schedule(1, 2, func(float64) { got = append(got, "dispatch") })
	e.Schedule(1, 0, func(float64) { got = append(got, "arrival-a") })
	e.Schedule(1, 1, func(float64) { got = append(got, "complete-a") })
	e.Schedule(1, 0, func(float64) { got = append(got, "arrival-b") })
	e.Schedule(1, 1, func(float64) { got = append(got, "complete-b") })
	e.Run(1)
	want := []string{"arrival-a", "arrival-b", "complete-a", "complete-b", "dispatch"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.Schedule(at, 0, func(now float64) { got = append(got, now) })
	}
	if n := e.Run(2); n != 2 {
		t.Fatalf("ran %d events, want 2 (t=2 inclusive)", n)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	if next, ok := e.Next(); !ok || next != 3 {
		t.Errorf("next = %v/%v, want 3", next, ok)
	}
	// Resume: the calendar survives across Run calls.
	e.Run(10)
	if !reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
		t.Errorf("resumed run produced %v", got)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := make(map[string]bool)
	keep := e.Schedule(1, 0, func(float64) { fired["keep"] = true })
	drop := e.Schedule(2, 0, func(float64) { fired["drop"] = true })
	if !e.Cancel(drop) {
		t.Error("Cancel of a pending event reported false")
	}
	if e.Cancel(drop) {
		t.Error("double Cancel reported true")
	}
	e.Run(10)
	if !fired["keep"] || fired["drop"] {
		t.Errorf("fired = %v, want only keep", fired)
	}
	if e.Cancel(keep) {
		t.Error("Cancel of an executed event reported true")
	}
	if e.Cancel(EventID(0)) {
		t.Error("Cancel of the zero EventID reported true")
	}
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	e := New(1)
	var got []float64
	var ids []EventID
	for _, at := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		at := at
		ids = append(ids, e.Schedule(at, 0, func(now float64) { got = append(got, now) }))
	}
	e.Cancel(ids[3]) // t=4
	e.Cancel(ids[6]) // t=7
	e.Run(10)
	want := []float64{1, 2, 3, 5, 6, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order after mid-heap cancels %v, want %v", got, want)
	}
}

func TestHandlersCanScheduleAtCurrentTime(t *testing.T) {
	e := New(1)
	var got []string
	e.Schedule(1, 0, func(now float64) {
		got = append(got, "first")
		// Same-time follow-up runs within the same Run call, after
		// already-pending same-time events of lower priority rank.
		e.Schedule(now, 5, func(float64) { got = append(got, "followup") })
	})
	e.Schedule(1, 1, func(float64) { got = append(got, "second") })
	e.Run(1)
	want := []string{"first", "second", "followup"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestChainedSchedulingAdvancesClock(t *testing.T) {
	e := New(1)
	count := 0
	var tick func(now float64)
	tick = func(now float64) {
		count++
		e.ScheduleAfter(1, 0, tick)
	}
	e.ScheduleAfter(1, 0, tick)
	e.Run(100)
	if count != 100 {
		t.Errorf("ticked %d times, want 100", count)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestSchedulingInThePastPanics(t *testing.T) {
	e := New(1)
	e.Schedule(5, 0, func(float64) {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Error("scheduling before Now() did not panic")
		}
	}()
	e.Schedule(1, 0, func(float64) {})
}

func TestDeterministicReplay(t *testing.T) {
	// Two engines driven by identical logic — including RNG draws and a
	// cancellation — must produce identical traces.
	run := func() []float64 {
		e := New(99)
		var got []float64
		var pending EventID
		e.Schedule(1, 0, func(now float64) {
			got = append(got, now+e.RNG().Float64())
			pending = e.ScheduleAfter(10, 0, func(now float64) { got = append(got, -now) })
		})
		e.Schedule(2, 0, func(now float64) {
			e.Cancel(pending)
			got = append(got, now+e.RNG().Float64())
		})
		e.Run(50)
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
	if len(a) != 2 {
		t.Errorf("cancelled event ran: %v", a)
	}
}

func TestManyEventsStressHeap(t *testing.T) {
	// Schedule a pseudo-random pile of events, cancel a third, and check
	// the execution sequence is sorted.
	e := New(7)
	var ids []EventID
	var got []float64
	for i := 0; i < 2000; i++ {
		at := e.RNG().Float64() * 1000
		ids = append(ids, e.Schedule(at, 0, func(now float64) { got = append(got, now) }))
	}
	for i := 0; i < len(ids); i += 3 {
		e.Cancel(ids[i])
	}
	e.Run(2000)
	if len(got) != 2000-667 {
		t.Fatalf("executed %d events, want %d", len(got), 2000-667)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out-of-order execution at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

func TestScheduleCallRoutesArgAndCancels(t *testing.T) {
	e := New(1)
	var got []uint64
	h := func(now float64, arg uint64) { got = append(got, arg) }
	e.ScheduleCall(1, 0, h, 7)
	keep := e.ScheduleCall(2, 0, h, 8)
	drop := e.ScheduleCall(3, 0, h, 9)
	if !e.Cancel(drop) {
		t.Error("Cancel of pending ScheduleCall event reported false")
	}
	e.Run(10)
	if !reflect.DeepEqual(got, []uint64{7, 8}) {
		t.Errorf("args %v, want [7 8]", got)
	}
	if e.Cancel(keep) {
		t.Error("Cancel of executed event reported true (stale id must miss the recycled slot)")
	}
	// The slot behind `keep` has been recycled; a new event in it must
	// carry a fresh generation so the old id still misses.
	id := e.ScheduleCall(11, 0, h, 10)
	if id == keep {
		t.Error("recycled slot reissued an identical EventID")
	}
	e.Run(20)
}

func TestSteadyStateSchedulingIsAllocationFree(t *testing.T) {
	// The hot-path contract: a warm engine schedules and fires
	// pre-bound (Handler, arg) events without allocating, on every kind
	// of queue. This is what keeps the serving simulator's per-decode-
	// step cost at zero steady-state allocations.
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	side := e.NewQueue(HeapQueue)
	var fired int
	h := func(now float64, arg uint64) { fired++ }
	// Warm the slab, heaps, ring, and free list past their high-water
	// mark.
	for i := 0; i < 256; i++ {
		e.ScheduleCall(float64(i), i%4, h, uint64(i))
		e.ScheduleOn(ring, float64(i), 0, h, uint64(i))
		e.ScheduleOn(side, float64(i), i%4, h, uint64(i))
	}
	e.Run(1 << 20)
	// Each run pushes and pops three ring entries: 1000 runs wrap the
	// 256-entry ring's head around a dozen times.
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(e.Now()+1, 0, h, 1)
		e.ScheduleCall(e.Now()+2, 1, h, 2)
		e.ScheduleOn(ring, e.Now(), 0, h, 3)
		e.ScheduleOn(ring, e.Now()+1, 2, h, 4)
		e.ScheduleOn(ring, e.Now()+3, 0, h, 5)
		e.ScheduleOn(side, e.Now()+1.5, 0, h, 6)
		e.ScheduleOn(side, e.Now()+0.5, 3, h, 7)
		for i := 0; i < 7; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f times per run, want 0", allocs)
	}
	if n := len(e.qs[ring].ents); n != 256 {
		t.Errorf("ring grew to %d entries at steady state, want 256", n)
	}
}

func TestCancelIsAllocationFreeAtSteadyState(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	side := e.NewQueue(HeapQueue)
	h := func(float64, uint64) {}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(float64(i+1), 0, h, 0)
		e.ScheduleOn(ring, float64(i+1), 0, h, 0)
		e.ScheduleOn(side, float64(i+1), 0, h, 0)
	}
	e.Run(1 << 20)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, q := range []Queue{MainQueue, ring, side} {
			id := e.ScheduleOn(q, e.Now()+1, 0, h, 0)
			if !e.Cancel(id) {
				t.Fatal("cancel failed")
			}
		}
		// A ring tombstone behind the head, skipped when the head fires.
		e.ScheduleOn(ring, e.Now()+1, 0, h, 0)
		id := e.ScheduleOn(ring, e.Now()+2, 0, h, 0)
		if !e.Cancel(id) {
			t.Fatal("cancel behind the ring head failed")
		}
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+cancel allocates %.1f times, want 0", allocs)
	}
}
