package sim

import (
	"reflect"
	"testing"
)

// replayLog is shared by the replay tests: handlers append to the
// engine-independent record so a restored engine writes a fresh trace
// through the same closures.
type replayLog struct{ lines []float64 }

// TestSnapshotRestoreReplaysIdentically is the fork contract at the
// engine level: a snapshot taken mid-run restores clock, calendar, and
// RNG stream, so the suffix replays event-for-event and draw-for-draw —
// any number of times, because the snapshot is immutable.
func TestSnapshotRestoreReplaysIdentically(t *testing.T) {
	e := New(99)
	log := &replayLog{}
	// A self-rescheduling chain whose gaps come from the engine RNG:
	// replay identity therefore requires the RNG state to round-trip.
	var tick func(now float64)
	tick = func(now float64) {
		log.lines = append(log.lines, now)
		e.ScheduleAfter(0.1+e.RNG().Float64(), 1, tick)
	}
	e.Schedule(0, 1, tick)
	e.Run(10)

	snap := e.Snapshot()
	if snap.Now() != e.Now() {
		t.Fatalf("snapshot clock %v, want %v", snap.Now(), e.Now())
	}
	log.lines = nil
	e.Run(50)
	want := append([]float64(nil), log.lines...)
	if len(want) == 0 {
		t.Fatal("suffix fired no events; replay test is vacuous")
	}
	for i := 0; i < 3; i++ {
		e.Restore(snap)
		log.lines = nil
		e.Run(50)
		if !reflect.DeepEqual(log.lines, want) {
			t.Fatalf("replay %d diverged: %v vs %v", i, log.lines, want)
		}
	}
}

// TestRestoreKeepsEventIDsValid pins that EventIDs issued before a
// snapshot stay cancelable after a restore: the snapshot preserves slab
// slot generations, so handles held across the fork don't dangle.
func TestRestoreKeepsEventIDsValid(t *testing.T) {
	e := New(1)
	var fired []string
	e.Schedule(1, 0, func(float64) { fired = append(fired, "a") })
	id := e.Schedule(2, 0, func(float64) { fired = append(fired, "b") })
	snap := e.Snapshot()

	if !e.Cancel(id) {
		t.Fatal("pre-restore cancel failed")
	}
	e.Run(5)
	if !reflect.DeepEqual(fired, []string{"a"}) {
		t.Fatalf("first run fired %v, want [a]", fired)
	}

	e.Restore(snap)
	fired = nil
	if !e.Cancel(id) {
		t.Fatal("EventID from before the snapshot no longer cancels after restore")
	}
	e.Run(5)
	if !reflect.DeepEqual(fired, []string{"a"}) {
		t.Fatalf("post-restore run fired %v, want [a]", fired)
	}
}

// TestRestoreRewindsClock pins the in-place rewind: restoring an older
// snapshot moves the clock backwards and re-arms already-fired events.
func TestRestoreRewindsClock(t *testing.T) {
	e := New(1)
	count := 0
	e.Schedule(3, 0, func(float64) { count++ })
	snap := e.Snapshot()
	e.Run(5)
	if e.Now() != 3 || count != 1 {
		t.Fatalf("run: now=%v count=%d, want 3 and 1", e.Now(), count)
	}
	e.Restore(snap)
	if e.Now() != 0 {
		t.Fatalf("restore left clock at %v, want 0", e.Now())
	}
	e.Run(5)
	if count != 2 {
		t.Errorf("re-armed event fired %d times total, want 2", count)
	}
}
