package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"litegpu/internal/mathx"
)

// refSlot is the reference model's reservoir entry: one plain slice per
// sampled request, as the Recorder stored timelines before the arena.
type refSlot struct {
	id      int64
	arrival float64
	events  []Event
}

// refRecorder is a naive Recorder: the same reservoir decisions on the
// same RNG stream, tracked ids found by a linear scan, and a trace
// rendered record by record with fmt.
type refRecorder struct {
	k         int
	rng       *mathx.RNG
	seen      int
	slots     []refSlot
	cluster   []Event
	poolNames map[int32]string
}

func newRef(seed uint64, k int) *refRecorder {
	return &refRecorder{k: k, rng: mathx.NewRNG(mathx.DeriveSeed(seed, 0x0b5e)), poolNames: map[int32]string{}}
}

func (m *refRecorder) find(id int64) *refSlot {
	for i := range m.slots {
		if m.slots[i].id == id {
			return &m.slots[i]
		}
	}
	return nil
}

func (m *refRecorder) request(kind Kind, t float64, pool, inst int32, req int64, val float64) {
	var s *refSlot
	if kind == Arrival {
		i := m.seen
		m.seen++
		if len(m.slots) < m.k {
			m.slots = append(m.slots, refSlot{id: req, arrival: t})
			s = &m.slots[len(m.slots)-1]
		} else if j := m.rng.Intn(i + 1); j < m.k {
			m.slots[j] = refSlot{id: req, arrival: t}
			s = &m.slots[j]
		}
	} else {
		s = m.find(req)
	}
	if s != nil {
		s.events = append(s.events, Event{T: t, Kind: kind, Pool: pool, Inst: inst, Req: req, Val: val})
	}
}

func (m *refRecorder) adopt(oldID, newID int64) {
	if s := m.find(oldID); s != nil {
		s.id = newID
	}
}

// trace renders the Chrome trace_event document WriteTrace documents.
func (m *refRecorder) trace() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	us := func(t float64) string { return g(t * 1e6) }
	order := make([]*refSlot, len(m.slots))
	for i := range m.slots {
		order[i] = &m.slots[i]
	}
	slices.SortFunc(order, func(a, b *refSlot) int {
		if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})

	type thread struct{ pool, inst int32 }
	var pools []int32
	var threads []thread
	note := func(pool, inst int32) {
		if !slices.Contains(pools, pool) {
			pools = append(pools, pool)
		}
		if th := (thread{pool, inst}); !slices.Contains(threads, th) {
			threads = append(threads, th)
		}
	}
	for _, s := range order {
		for _, e := range s.events {
			note(e.Pool, -1)
			note(e.Pool, e.Inst)
		}
	}
	for _, e := range m.cluster {
		note(e.Pool, e.Inst)
	}

	var recs []string
	for _, p := range pools {
		name, ok := m.poolNames[p]
		if !ok || name == "" {
			name = "pool"
		}
		recs = append(recs, fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":%q}}`, p+1, name))
	}
	for _, th := range threads {
		name := "frontend"
		if th.inst >= 0 {
			name = fmt.Sprintf("instance %d", th.inst)
		}
		recs = append(recs, fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`, th.pool+1, th.inst+1, name))
	}
	instant := func(e Event, cat string) string {
		return fmt.Sprintf(`{"ph":"i","s":"t","name":%q,"cat":"%s","pid":%d,"tid":%d,"ts":%s,"args":{"req":%d,"v":%s}}`,
			e.Kind.String(), cat, e.Pool+1, e.Inst+1, us(e.T), e.Req, g(e.Val))
	}
	for _, s := range order {
		if len(s.events) == 0 {
			continue
		}
		first, last := s.events[0], s.events[len(s.events)-1]
		name := fmt.Sprintf("req %d", s.id)
		recs = append(recs, fmt.Sprintf(`{"ph":"X","name":%q,"cat":"request","pid":%d,"tid":0,"ts":%s,"dur":%s,"args":{"req":%d}}`,
			name, first.Pool+1, us(s.arrival), us(last.T-s.arrival), s.id))
		done := -1
		for i, e := range s.events {
			if e.Kind == Complete {
				done = i
			}
		}
		if done >= 0 {
			done := s.events[done]
			recs = append(recs,
				fmt.Sprintf(`{"ph":"s","name":%q,"cat":"flow","pid":%d,"tid":0,"ts":%s,"id":%d}`, name, first.Pool+1, us(s.arrival), s.id),
				fmt.Sprintf(`{"ph":"f","name":%q,"cat":"flow","pid":%d,"tid":%d,"ts":%s,"id":%d,"bp":"e"}`, name, done.Pool+1, done.Inst+1, us(done.T), s.id))
		}
		for i, e := range s.events {
			if e.Kind != PrefillStart {
				continue
			}
			for _, f := range s.events[i+1:] {
				if (f.Kind == PrefillEnd || f.Kind == Chunk) && f.Inst == e.Inst {
					recs = append(recs, fmt.Sprintf(`{"ph":"X","name":"prefill","cat":"phase","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"req":%d}}`,
						e.Pool+1, e.Inst+1, us(e.T), us(f.T-e.T), s.id))
					break
				}
			}
		}
		for _, e := range s.events {
			recs = append(recs, instant(e, "lifecycle"))
		}
	}
	for _, e := range m.cluster {
		recs = append(recs, instant(e, "cluster"))
	}
	return `{"displayTimeUnit":"ms","traceEvents":[` + strings.Join(recs, ",") + "]}\n"
}

// checkAgainstRef compares a Recorder with the reference model: the
// reservoir counts, every slot's id, arrival and timeline, the live map,
// the arena's chunk accounting and the exported trace bytes.
func checkAgainstRef(t *testing.T, r *Recorder, m *refRecorder) {
	t.Helper()
	held, seen := r.Sampled()
	if held != len(m.slots) || seen != m.seen {
		t.Fatalf("Sampled() = %d, %d; reference %d, %d", held, seen, len(m.slots), m.seen)
	}
	if len(r.live) != held {
		t.Fatalf("live map has %d entries for %d slots", len(r.live), held)
	}
	chunks := 0
	for i := range r.slots {
		s, want := &r.slots[i], &m.slots[i]
		if s.id != want.id || mathx.ExactNe(s.arrival, want.arrival) {
			t.Fatalf("slot %d holds (id %d, arrival %v); reference (id %d, arrival %v)", i, s.id, s.arrival, want.id, want.arrival)
		}
		if idx, ok := r.live[s.id]; !ok || int(idx) != i {
			t.Fatalf("live[%d] = %d, %v; want slot %d", s.id, idx, ok, i)
		}
		if got := r.timeline(s, nil); !reflect.DeepEqual(got, want.events) && (len(got) > 0 || len(want.events) > 0) {
			t.Fatalf("slot %d (id %d) timeline:\n got %v\nwant %v", i, s.id, got, want.events)
		}
		chunks += (int(s.n) + chunkEvents - 1) / chunkEvents
	}
	for c := r.free; c >= 0; c = r.chunk(c).next {
		chunks++
	}
	if chunks != int(r.used) {
		t.Fatalf("arena leaks: %d chunks in timelines and on the free list, %d handed out", chunks, r.used)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), m.trace(); got != want {
		t.Fatalf("trace differs from the reference (%d vs %d bytes)\n got %.400s\nwant %.400s", len(got), len(want), got, want)
	}
}

// FuzzRecorder plays an op tape through a Recorder and through the naive
// reference model in lockstep. The tape mixes arrivals, every other
// request kind, retries adopted onto fresh ids (of tracked, untracked and
// later-evicted requests), cluster events and pool names, under a
// reservoir of one to eight slots, so evictions hand chunk chains back to
// the free list constantly and long timelines span several chunks.
func FuzzRecorder(f *testing.F) {
	for i := 0; i < 48; i++ {
		rng := mathx.NewRNG(uint64(i) + 1)
		tape := make([]byte, 64+rng.Intn(512))
		for j := range tape {
			tape[j] = byte(rng.Uint64())
		}
		f.Add(uint64(i), uint8(i), tape)
	}
	f.Fuzz(runTape)
}

// runTape is one FuzzRecorder case: k = 1 + targets%8 reservoir slots,
// the Recorder and the reference seeded alike, compared after 64 ops and
// at the end of the tape.
func runTape(t *testing.T, seed uint64, targets uint8, tape []byte) {
	k := 1 + int(targets%8)
	r := New(Options{Seed: seed, SampleTargets: k})
	m := newRef(seed, k)
	pos := 0
	next := func() byte {
		if pos >= len(tape) {
			return 0
		}
		pos++
		return tape[pos-1]
	}
	var ids []int64 // every id issued so far, by arrival or adoption
	fresh := int64(0)
	pick := func() int64 {
		b := int(next())
		switch {
		case b%4 < 2 && len(m.slots) > 0: // a tracked request, so timelines grow long
			return m.slots[(b>>2)%len(m.slots)].id
		case b%4 == 2: // one of the newest ids
			return ids[len(ids)-1-(b>>2)%min(4, len(ids))]
		}
		return ids[(b>>2)%len(ids)] // any id, most of them untracked
	}
	now := 0.0
	for op := 0; pos < len(tape); op++ {
		if op == 64 {
			checkAgainstRef(t, r, m)
		}
		b := next()
		now += float64(b>>5) * 0.125 // ties are frequent
		pool, inst := int32(b&1), int32(b>>1&3)-1
		val := float64(int8(next())) / 4
		switch b % 8 {
		case 0, 1:
			id := fresh
			fresh++
			ids = append(ids, id)
			r.Request(Arrival, now, pool, -1, id, val)
			m.request(Arrival, now, pool, -1, id, val)
		case 2, 3, 4:
			if len(ids) == 0 {
				continue
			}
			kind := Kind(1 + int(next())%int(ScaleDown+2)) // past ScaleDown renders "unknown"
			id := pick()
			r.Request(kind, now, pool, inst, id, val)
			m.request(kind, now, pool, inst, id, val)
		case 5:
			if len(ids) == 0 {
				continue
			}
			old, id := pick(), fresh
			fresh++
			ids = append(ids, id)
			r.Adopt(old, id)
			m.adopt(old, id)
		case 6:
			kind := InstanceDown + Kind(next()%4)
			r.Cluster(kind, now, pool, inst, val)
			m.cluster = append(m.cluster, Event{T: now, Kind: kind, Pool: pool, Inst: inst, Req: -1, Val: val})
		case 7:
			name := [...]string{"", "prefill", "décode \"eu\"\n"}[next()%3]
			r.SetPoolName(int(pool), name)
			m.poolNames[pool] = name
		}
	}
	checkAgainstRef(t, r, m)
}
