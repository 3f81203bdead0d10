package sim

import (
	"fmt"
	"testing"

	"litegpu/internal/mathx"
)

// BenchmarkCalendar is the hold model of a simulation in steady state:
// the calendar holds depth events, and each operation fires the
// earliest and books a replacement a random gap later, on MainQueue.
// ns/event is the cost of one ScheduleCall plus one Step at that depth.
func BenchmarkCalendar(b *testing.B) {
	for _, depth := range []int{10, 1_000, 100_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := New(1)
			rng := mathx.NewRNG(uint64(depth))
			h := func(float64, uint64) {}
			// Mean gap 1, so the calendar spans about depth time units.
			for i := 0; i < depth; i++ {
				e.ScheduleCall(rng.Exponential(1)*float64(depth), 0, h, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.ScheduleCall(e.Now()+rng.Exponential(1)*float64(depth), 0, h, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// mixedCalendar is a calendar shaped like a closed-loop serving run:
// one hot decode-step completion that books a dispatch pass at now,
// which books the next completion, over a cold backlog of client
// deadlines (a fixed timeout after booking) and jittered retries. With
// routed set, each class rides the queue the serving simulator gives
// it; otherwise everything shares MainQueue.
type mixedCalendar struct {
	e                                 *Engine
	rng                               *mathx.RNG
	dispatchQ, deadlineQ, retryQ      Queue
	completeH, dispatchH, deadlineH   Handler
	retryH                            Handler
	stepTime, timeout, backoff        float64
	completions, deadlines, retries   int
	prioComplete, prioClient, prioDsp int
}

func newMixedCalendar(routed bool, backlog int) *mixedCalendar {
	m := &mixedCalendar{
		e: New(1), rng: mathx.NewRNG(1),
		stepTime: 0.02, timeout: 10, backoff: 8,
		prioComplete: 10, prioClient: 20, prioDsp: 30,
	}
	if routed {
		m.dispatchQ = m.e.NewQueue(FIFOQueue)
		m.deadlineQ = m.e.NewQueue(FIFOQueue)
		m.retryQ = m.e.NewQueue(HeapQueue)
	}
	m.completeH = m.complete
	m.dispatchH = m.dispatch
	m.deadlineH = m.deadline
	m.retryH = m.retry
	for i := 0; i < backlog/2; i++ {
		m.e.ScheduleOn(m.deadlineQ, m.timeout*float64(i)/float64(backlog/2), m.prioClient, m.deadlineH, 0)
		m.e.ScheduleOn(m.retryQ, m.backoff*m.rng.Float64()*2, m.prioClient, m.retryH, 0)
	}
	m.e.ScheduleCall(m.stepTime, m.prioComplete, m.completeH, 0)
	return m
}

func (m *mixedCalendar) complete(now float64, _ uint64) {
	m.completions++
	m.e.ScheduleOn(m.dispatchQ, now, m.prioDsp, m.dispatchH, 0)
}

func (m *mixedCalendar) dispatch(now float64, _ uint64) {
	m.e.ScheduleCall(now+m.stepTime, m.prioComplete, m.completeH, 0)
}

func (m *mixedCalendar) deadline(now float64, _ uint64) {
	m.deadlines++
	m.e.ScheduleOn(m.deadlineQ, now+m.timeout, m.prioClient, m.deadlineH, 0)
}

func (m *mixedCalendar) retry(now float64, _ uint64) {
	m.retries++
	m.e.ScheduleOn(m.retryQ, now+m.backoff*(0.5+m.rng.Float64()), m.prioClient, m.retryH, 0)
}

// BenchmarkCalendarMixed fires the closed-loop mix over a backlog of
// about 90 deadlines and retries, with the classes routed to their own
// queues and, for comparison, all on MainQueue. One op is one event.
func BenchmarkCalendarMixed(b *testing.B) {
	for _, routed := range []bool{true, false} {
		name := "single-heap"
		if routed {
			name = "routed"
		}
		b.Run(name, func(b *testing.B) {
			m := newMixedCalendar(routed, 90)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// TestMixedCalendarShape pins the benchmark's shape: the hot pair
// dominates, the backlog stays at its size, and routing leaves the
// firing order unchanged.
func TestMixedCalendarShape(t *testing.T) {
	var order [2][]float64
	for k, routed := range []bool{true, false} {
		m := newMixedCalendar(routed, 90)
		for i := 0; i < 20_000; i++ {
			m.e.Step()
			if i%97 == 0 {
				order[k] = append(order[k], m.e.Now())
			}
		}
		if m.e.Pending() != 91 {
			t.Errorf("routed=%v: %d pending, want the 90-event backlog plus the hot event", routed, m.e.Pending())
		}
		if hot := 2 * m.completions; hot < 8*(m.deadlines+m.retries) {
			t.Errorf("routed=%v: %d hot events vs %d backlog firings; the mix is not completion-dominated",
				routed, hot, m.deadlines+m.retries)
		}
	}
	for i := range order[0] {
		if mathx.ExactNe(order[0][i], order[1][i]) {
			t.Fatalf("routed and single-heap calendars diverge at sample %d: %v vs %v", i, order[0][i], order[1][i])
		}
	}
}
