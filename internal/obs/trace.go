package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"litegpu/internal/mathx"
)

// WriteTrace exports the sampled request timelines and the cluster
// events as Chrome trace_event JSON — the format Perfetto (and
// chrome://tracing) loads directly. The mapping:
//
//   - every pool is a process (pid = pool index + 1), named by
//     SetPoolName;
//   - tid 0 is the pool's frontend (router, admission, queue);
//     instance i is thread tid i+1;
//   - every sampled request is an "X" duration span on the frontend
//     thread from arrival to its last event, plus a flow arrow
//     (ph "s"/"f") from arrival to completion;
//   - prefill passes are "X" spans on the instance that ran them;
//   - every other lifecycle event is an instant ("i") on its
//     instance's thread, named by its Kind.
//
// Output is byte-deterministic: slots render in (arrival, id) order,
// floats render via strconv shortest-round-trip, and no map is ranged.
func (r *Recorder) WriteTrace(w io.Writer) error {
	tw := &traceWriter{out: bufio.NewWriterSize(w, exportBufSize)}
	tw.buf = append(tw.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)

	order := make([]int, len(r.slots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &r.slots[order[a]], &r.slots[order[b]]
		if mathx.ExactNe(sa.arrival, sb.arrival) {
			return sa.arrival < sb.arrival
		}
		return sa.id < sb.id
	})

	// Process/thread metadata for every (pool, inst) the render will
	// touch, deduplicated in first-encounter order.
	seen := make(map[int64]bool)
	var metaPools []int32
	var metaThreads []int64
	note := func(pool, inst int32) {
		pk := int64(pool) << 32
		if !seen[pk] {
			seen[pk] = true
			metaPools = append(metaPools, pool)
		}
		tk := pk | int64(uint32(inst+1)) | 1<<62
		if !seen[tk] {
			seen[tk] = true
			metaThreads = append(metaThreads, int64(pool)<<32|int64(uint32(inst+1)))
		}
	}
	var events []Event // one slot's timeline at a time, reused
	for _, si := range order {
		events = r.timeline(&r.slots[si], events[:0])
		for _, e := range events {
			note(e.Pool, -1)
			note(e.Pool, e.Inst)
		}
	}
	for _, e := range r.cluster {
		note(e.Pool, e.Inst)
	}
	for _, pool := range metaPools {
		tw.name = strconv.AppendQuote(tw.name[:0], r.poolName(pool))
		tw.meta("process_name", int(pool)+1, -1, tw.name)
	}
	for _, th := range metaThreads {
		pool, tid := int32(th>>32), int(uint32(th))
		if tid > 0 {
			tw.name = append(tw.name[:0], `"instance `...)
			tw.name = strconv.AppendInt(tw.name, int64(tid-1), 10)
			tw.name = append(tw.name, '"')
		} else {
			tw.name = append(tw.name[:0], `"frontend"`...)
		}
		tw.meta("thread_name", int(pool)+1, tid, tw.name)
	}

	for _, si := range order {
		s := &r.slots[si]
		if s.n == 0 {
			continue
		}
		events = r.timeline(s, events[:0])
		first, last := events[0], events[len(events)-1]
		tw.name = append(tw.name[:0], `"req `...)
		tw.name = strconv.AppendInt(tw.name, s.id, 10)
		tw.name = append(tw.name, '"')
		// Request lifetime span on the frontend thread.
		tw.span(tw.name, "request", int(first.Pool)+1, 0, s.arrival, last.T-s.arrival, s.id)
		// Flow arrow arrival → completion.
		var done *Event
		for i := range events {
			if events[i].Kind == Complete {
				done = &events[i]
			}
		}
		if done != nil {
			tw.flow("s", tw.name, int(first.Pool)+1, 0, s.arrival, s.id)
			tw.flow("f", tw.name, int(done.Pool)+1, int(done.Inst)+1, done.T, s.id)
		}
		// Prefill spans: each PrefillStart pairs with the next
		// PrefillEnd or Chunk on the same instance.
		for i := range events {
			e := &events[i]
			if e.Kind != PrefillStart {
				continue
			}
			for j := i + 1; j < len(events); j++ {
				f := &events[j]
				if (f.Kind == PrefillEnd || f.Kind == Chunk) && f.Inst == e.Inst {
					tw.span(quotedPrefill, "phase", int(e.Pool)+1, int(e.Inst)+1, e.T, f.T-e.T, s.id)
					break
				}
			}
		}
		// Every event as an instant on its thread.
		for i := range events {
			e := &events[i]
			tw.instant(e.Kind, "lifecycle", int(e.Pool)+1, int(e.Inst)+1, e.T, e.Req, e.Val)
		}
	}
	for i := range r.cluster {
		e := &r.cluster[i]
		tw.instant(e.Kind, "cluster", int(e.Pool)+1, int(e.Inst)+1, e.T, e.Req, e.Val)
	}

	tw.buf = append(tw.buf, "]}\n"...)
	tw.out.Write(tw.buf) // a write error sticks in out; Flush returns it
	return tw.out.Flush()
}

// quotedKinds holds every Kind's export name already JSON-quoted, plus
// the out-of-range name last, so instants copy bytes instead of quoting.
var quotedKinds = func() (q [len(kindNames) + 1][]byte) {
	for k := range q {
		q[k] = strconv.AppendQuote(nil, Kind(k).String())
	}
	return q
}()

var quotedPrefill = []byte(`"prefill"`)

// exportBufSize is the buffer every export streams through, whatever
// the size of the document.
const exportBufSize = 64 << 10

// traceWriter hand-builds trace_event JSON: field order is fixed and
// floats render shortest-round-trip, so output is byte-deterministic.
// Each record is built in buf and handed to out, which writes to the
// destination whenever its fixed buffer fills; after the first write
// error it writes nothing more. Names arrive JSON-quoted; name is
// scratch for building them.
type traceWriter struct {
	out   *bufio.Writer
	buf   []byte
	name  []byte
	first bool
}

// sep hands the previous record to out and starts the next one.
func (tw *traceWriter) sep() {
	tw.out.Write(tw.buf) // a write error sticks in out; Flush returns it
	tw.buf = tw.buf[:0]
	if tw.first {
		tw.buf = append(tw.buf, ',')
	}
	tw.first = true
}

func (tw *traceWriter) ts(t float64) {
	// trace_event timestamps are microseconds.
	tw.buf = strconv.AppendFloat(tw.buf, t*1e6, 'g', -1, 64)
}

func (tw *traceWriter) meta(kind string, pid, tid int, quotedName []byte) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"M","name":"`...)
	tw.buf = append(tw.buf, kind...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	if tid >= 0 {
		tw.buf = append(tw.buf, `,"tid":`...)
		tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	}
	tw.buf = append(tw.buf, `,"args":{"name":`...)
	tw.buf = append(tw.buf, quotedName...)
	tw.buf = append(tw.buf, `}}`...)
}

func (tw *traceWriter) span(quotedName []byte, cat string, pid, tid int, t, dur float64, req int64) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"X","name":`...)
	tw.buf = append(tw.buf, quotedName...)
	tw.buf = append(tw.buf, `,"cat":"`...)
	tw.buf = append(tw.buf, cat...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.ts(t)
	tw.buf = append(tw.buf, `,"dur":`...)
	tw.ts(dur)
	tw.buf = append(tw.buf, `,"args":{"req":`...)
	tw.buf = strconv.AppendInt(tw.buf, req, 10)
	tw.buf = append(tw.buf, `}}`...)
}

func (tw *traceWriter) flow(ph string, quotedName []byte, pid, tid int, t float64, id int64) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"`...)
	tw.buf = append(tw.buf, ph...)
	tw.buf = append(tw.buf, `","name":`...)
	tw.buf = append(tw.buf, quotedName...)
	tw.buf = append(tw.buf, `,"cat":"flow","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.ts(t)
	tw.buf = append(tw.buf, `,"id":`...)
	tw.buf = strconv.AppendInt(tw.buf, id, 10)
	if ph == "f" {
		tw.buf = append(tw.buf, `,"bp":"e"`...)
	}
	tw.buf = append(tw.buf, `}`...)
}

func (tw *traceWriter) instant(kind Kind, cat string, pid, tid int, t float64, req int64, val float64) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"i","s":"t","name":`...)
	tw.buf = append(tw.buf, quotedKinds[min(int(kind), len(kindNames))]...)
	tw.buf = append(tw.buf, `,"cat":"`...)
	tw.buf = append(tw.buf, cat...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.ts(t)
	tw.buf = append(tw.buf, `,"args":{"req":`...)
	tw.buf = strconv.AppendInt(tw.buf, req, 10)
	tw.buf = append(tw.buf, `,"v":`...)
	tw.buf = strconv.AppendFloat(tw.buf, val, 'g', -1, 64)
	tw.buf = append(tw.buf, `}}`...)
}
