package sim

import (
	"math"
	"reflect"
	"testing"

	"litegpu/internal/mathx"
)

// TestQueuesMergeInGlobalOrder pins the merge contract: events spread
// over a heap queue, a FIFO ring, and MainQueue fire in exactly the
// (time, priority, insertion) order a single calendar would give them.
func TestQueuesMergeInGlobalOrder(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	side := e.NewQueue(HeapQueue)
	var got []uint64
	h := func(_ float64, arg uint64) { got = append(got, arg) }
	e.ScheduleOn(ring, 1, 0, h, 1)
	e.ScheduleOn(side, 1, 0, h, 2)
	e.ScheduleCall(1, 0, h, 3)
	e.ScheduleOn(ring, 2, 1, h, 6)
	e.ScheduleCall(2, 0, h, 4)
	e.ScheduleOn(side, 2, 0, h, 5)
	e.ScheduleOn(ring, 3, 0, h, 7)
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
	e.Run(10)
	if want := []uint64{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// TestMisorderedFIFOPushFallsThrough pins that a FIFO ring never
// reorders: a push that sorts before the ring's tail (earlier time, or
// equal time at a lower priority) is booked on MainQueue and still
// fires at its place in the global order, and stays cancellable there.
func TestMisorderedFIFOPushFallsThrough(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	var got []uint64
	h := func(_ float64, arg uint64) { got = append(got, arg) }
	e.ScheduleOn(ring, 5, 1, h, 4)
	e.ScheduleOn(ring, 2, 0, h, 1) // earlier than the tail
	e.ScheduleOn(ring, 5, 0, h, 3) // same time, lower priority
	e.ScheduleOn(ring, 5, 1, h, 5) // in order: stays on the ring
	id := e.ScheduleOn(ring, 3, 0, h, 99)
	e.ScheduleOn(ring, 4, 0, h, 2)
	if got := len(e.qs[MainQueue].ents); got != 4 {
		t.Errorf("main heap holds %d entries, want the 4 misordered pushes", got)
	}
	if !e.Cancel(id) {
		t.Fatal("cancel of a fallen-through event failed")
	}
	e.Run(10)
	if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// TestFIFOCancelLeavesTombstone pins lazy FIFO cancellation: cancelling
// an entry behind the head leaves a tombstone that Pending does not
// count, a second cancel misses, and the slot is recycled only once the
// tombstone reaches the head.
func TestFIFOCancelLeavesTombstone(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	var got []uint64
	h := func(_ float64, arg uint64) { got = append(got, arg) }
	e.ScheduleOn(ring, 1, 0, h, 1)
	mid := e.ScheduleOn(ring, 2, 0, h, 2)
	e.ScheduleOn(ring, 3, 0, h, 3)
	if !e.Cancel(mid) {
		t.Fatal("cancel of a pending FIFO entry failed")
	}
	if e.Cancel(mid) {
		t.Error("second cancel of the same FIFO entry reported true")
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d after cancel, want 2", e.Pending())
	}
	if n := e.qs[ring].n; n != 3 {
		t.Errorf("ring holds %d entries, want 3 (the tombstone stays until it reaches the head)", n)
	}
	if len(e.free) != 0 {
		t.Errorf("tombstoned slot recycled early: free list %v", e.free)
	}
	e.Step()
	if n := e.qs[ring].n; n != 1 {
		t.Errorf("ring holds %d entries after the head fired, want 1 (tombstone skipped)", n)
	}
	if len(e.free) != 2 {
		t.Errorf("free list %v, want the fired and the tombstoned slot", e.free)
	}
	e.Run(10)
	if want := []uint64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// TestInfiniteTimeIsLegal pins the +Inf contract: the step timers return
// +Inf for an infeasible step, so an event at +Inf is accepted, never
// fires within a finite horizon, and still fires (last) on Run(+Inf).
func TestInfiniteTimeIsLegal(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	var got []uint64
	h := func(_ float64, arg uint64) { got = append(got, arg) }
	e.ScheduleOn(ring, math.Inf(1), 0, h, 2)
	e.ScheduleCall(1, 0, h, 1)
	if n := e.Run(1e300); n != 1 {
		t.Fatalf("finite horizon fired %d events, want 1", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the +Inf event", e.Pending())
	}
	e.Run(math.Inf(1))
	if want := []uint64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v did not panic", bad)
				}
			}()
			e.ScheduleCall(bad, 0, h, 0)
		}()
	}
}

// TestRingWrapsAndGrows pins the ring's storage: pushes and pops wrap
// the head around a fixed ring, and growth while wrapped keeps order.
func TestRingWrapsAndGrows(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	var got []uint64
	h := func(_ float64, arg uint64) { got = append(got, arg) }
	next := uint64(0)
	push := func() {
		e.ScheduleOn(ring, float64(next), 0, h, next)
		next++
	}
	for i := 0; i < 10; i++ {
		push()
	}
	for i := 0; i < 8; i++ {
		e.Step()
	}
	for i := 0; i < 40; i++ { // wraps, then doubles twice while wrapped
		push()
	}
	if got := len(e.qs[ring].ents); got != 64 {
		t.Errorf("ring size %d, want 64", got)
	}
	e.Run(math.Inf(1))
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("fired %v, want 0..%d in order", got, next-1)
		}
	}
	if len(got) != int(next) {
		t.Errorf("fired %d events, want %d", len(got), next)
	}
}

// TestSnapshotCoversEveryQueue pins that Snapshot and Restore carry
// every queue — a wrapped ring with tombstones and a side heap
// included — so the suffix replays identically from any restore.
func TestSnapshotCoversEveryQueue(t *testing.T) {
	e := New(1)
	ring := e.NewQueue(FIFOQueue)
	side := e.NewQueue(HeapQueue)
	var got []uint64
	var h Handler
	h = func(now float64, arg uint64) {
		got = append(got, arg)
		if arg%3 == 0 {
			e.ScheduleOn(side, now+e.RNG().Float64()*4, 0, h, arg+1)
		}
		id := e.ScheduleOn(ring, now+1, 1, h, arg+2)
		if arg%5 == 0 {
			e.Cancel(id)
		}
	}
	e.ScheduleOn(ring, 0, 1, h, 0)
	e.Run(20)
	snap := e.Snapshot()
	got = nil
	e.Run(60)
	want := append([]uint64(nil), got...)
	if len(want) == 0 {
		t.Fatal("suffix fired no events; test is vacuous")
	}
	for i := 0; i < 2; i++ {
		e.Restore(snap)
		got = nil
		e.Run(60)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d diverged:\n%v\n%v", i, got, want)
		}
	}
}

// oracleEvent is one pending event of FuzzCalendar's reference model.
type oracleEvent struct {
	at   float64
	prio int
	seq  uint64
}

// oracleLess is the calendar order, spelled out independently.
func oracleLess(a, b oracleEvent) bool {
	if a.at < b.at || b.at < a.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// oracle is FuzzCalendar's reference calendar: an unsorted list of
// pending events, searched linearly for the minimum.
type oracle struct {
	live []oracleEvent
	seq  uint64
}

func (o *oracle) min() int {
	best := -1
	for i := range o.live {
		if best < 0 || oracleLess(o.live[i], o.live[best]) {
			best = i
		}
	}
	return best
}

func (o *oracle) remove(seq uint64) bool {
	for i := range o.live {
		if o.live[i].seq == seq {
			o.live = append(o.live[:i], o.live[i+1:]...)
			return true
		}
	}
	return false
}

// FuzzCalendar drives random tapes of ScheduleCall, ScheduleOn (two
// FIFO rings and a side heap), Cancel, Step, Run, RunBefore, Snapshot
// and Restore against a sort-by-(time, priority, insertion) oracle.
// Every firing is checked in lockstep inside the handler, and Pending
// and Next are checked after every operation. The time grid makes
// equal-time ties common, includes +Inf, and books FIFO pushes out of
// order; cancels target arbitrary (often non-head) entries.
func FuzzCalendar(f *testing.F) {
	// ties, out-of-order FIFO pushes, then cancels behind the head
	f.Add([]byte{1, 0x10, 1, 0x14, 1, 0x11, 1, 0x02, 1, 0x10, 2, 1, 2, 3, 3, 0, 4, 4, 4, 7})
	// +Inf on every queue, then drain
	f.Add([]byte{0, 0x07, 1, 0x07, 1, 0x27, 1, 0x47, 0, 0x00, 4, 6, 3, 0, 3, 0, 3, 0})
	// snapshot mid-run, diverge, restore, replay
	f.Add([]byte{1, 0x13, 1, 0x35, 0, 0x24, 6, 0, 3, 0, 2, 0, 1, 0x01, 7, 0, 4, 5, 7, 0, 5, 4})
	rng := mathx.NewRNG(7)
	for i := 0; i < 48; i++ {
		tape := make([]byte, 256)
		for j := range tape {
			tape[j] = byte(rng.Uint64())
		}
		f.Add(tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		checkCalendarTape(t, tape)
	})
}

// calendarDeltas is the fuzz time grid, in units after Now(): zeros and
// repeats make equal-time ties, +Inf is legal.
var calendarDeltas = [8]float64{0, 0, 0.25, 0.5, 1, 1, 3, math.Inf(1)}

func checkCalendarTape(t *testing.T, tape []byte) {
	e := New(3)
	qs := []Queue{MainQueue, e.NewQueue(FIFOQueue), e.NewQueue(HeapQueue), e.NewQueue(FIFOQueue)}
	o := &oracle{}
	type issued struct {
		id  EventID
		seq uint64
	}
	var ids []issued
	var handler Handler
	schedule := func(q Queue, at float64, prio int, child bool) {
		o.seq++
		arg := o.seq
		if child {
			arg |= 1 << 63
		}
		id := e.ScheduleOn(q, at, prio, handler, arg)
		ids = append(ids, issued{id, o.seq})
		o.live = append(o.live, oracleEvent{at: at, prio: prio, seq: o.seq})
	}
	fired := 0
	handler = func(now float64, arg uint64) {
		fired++
		seq := arg &^ (1 << 63)
		m := o.min()
		if m < 0 {
			t.Fatalf("event %d fired with the oracle empty", seq)
		}
		want := o.live[m]
		if want.seq != seq || math.Float64bits(want.at) != math.Float64bits(now) {
			t.Fatalf("fired event %d at %v, oracle expects %d at %v", seq, now, want.seq, want.at)
		}
		o.remove(seq)
		// A parent books one child (which books none) so handlers
		// schedule re-entrantly, at the current time included.
		if arg&(1<<63) == 0 && seq%4 == 0 {
			schedule(qs[seq%4], now+calendarDeltas[seq%5], int(seq%3), true)
		}
	}
	type saved struct {
		snap *Snapshot
		live []oracleEvent
		seq  uint64
		nids int
	}
	var snap *saved
	check := func(op int) {
		t.Helper()
		if e.Pending() != len(o.live) {
			t.Fatalf("op %d: Pending() = %d, oracle holds %d", op, e.Pending(), len(o.live))
		}
		at, ok := e.Next()
		m := o.min()
		if ok != (m >= 0) || (ok && math.Float64bits(at) != math.Float64bits(o.live[m].at)) {
			t.Fatalf("op %d: Next() = %v,%v, oracle min %d", op, at, ok, m)
		}
	}
	for i := 0; i+1 < len(tape) && i < 1024; i += 2 {
		op, p := tape[i]%8, tape[i+1]
		delta := calendarDeltas[p%8]
		switch op {
		case 0:
			schedule(MainQueue, e.Now()+delta, int(p>>3)%3, false)
		case 1:
			schedule(qs[1+int(p>>5)%3], e.Now()+delta, int(p>>3)%3, false)
		case 2:
			if len(ids) == 0 {
				break
			}
			x := ids[int(p)%len(ids)]
			want := o.remove(x.seq)
			if got := e.Cancel(x.id); got != want {
				t.Fatalf("op %d: Cancel(event %d) = %v, want %v", i, x.seq, got, want)
			}
		case 3:
			before, want := fired, min(len(o.live), 1)
			if stepped := e.Step(); stepped != (want == 1) || fired-before != want {
				t.Fatalf("op %d: Step reported %v and fired %d events, want %d", i, stepped, fired-before, want)
			}
		case 4, 5:
			until := e.Now() + delta
			before := fired
			var n int
			if op == 4 {
				n = e.Run(until)
			} else {
				n = e.RunBefore(until)
			}
			if n != fired-before {
				t.Fatalf("op %d: run reported %d events, handlers saw %d", i, n, fired-before)
			}
			if m := o.min(); m >= 0 && (o.live[m].at < until || (op == 4 && mathx.ExactEq(o.live[m].at, until))) {
				t.Fatalf("op %d: run to %v left event %d at %v", i, until, o.live[m].seq, o.live[m].at)
			}
		case 6:
			snap = &saved{e.Snapshot(), append([]oracleEvent(nil), o.live...), o.seq, len(ids)}
		case 7:
			if snap == nil {
				break
			}
			e.Restore(snap.snap)
			o.live = append(o.live[:0], snap.live...)
			o.seq = snap.seq
			// Ids issued after the snapshot name slots the restore
			// rewound; the simulator contract only keeps older ids.
			ids = ids[:snap.nids]
			if mathx.ExactNe(e.Now(), snap.snap.Now()) {
				t.Fatalf("op %d: restore left the clock at %v, want %v", i, e.Now(), snap.snap.Now())
			}
		}
		check(i)
	}
	before := fired
	e.Run(math.Inf(1))
	if e.Pending() != 0 || len(o.live) != 0 {
		t.Fatalf("drain left %d pending, oracle %d (fired %d)", e.Pending(), len(o.live), fired-before)
	}
}
