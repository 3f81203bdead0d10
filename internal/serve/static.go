package serve

import (
	"math"

	"litegpu/internal/mathx"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
	"litegpu/internal/trace"
)

// staticSched is the StaticDisaggregated policy: the paper's
// Splitwise-style phase split, with dedicated prefill engines batching
// incoming prompts and dedicated decode engines running continuous
// batching over active generations. It is the policy the Scheduler
// interface was extracted from, and reproduces the pre-extraction
// engine byte-for-byte (pinned by the golden corpus in
// testdata/static_goldens.txt).
//
// All per-iteration storage is reused: queues are ring buffers, each
// engine's batch buffer survives across passes, and completed request
// state recycles through the pool's free list — a warm scheduler runs
// without allocating.
type staticSched struct {
	pool *poolSim
	cfg  Config

	prefills []prefillEngine
	decodes  []decodeEngine
	prefillQ deque[trace.Request]
	decodeQ  deque[*activeReq]
	decodeRR int // KV-handoff destination rotation

	// reprefillQ holds preempted sequences whose KV must be rebuilt by a
	// prefill pass (Recompute policy); `one` is the reusable batch-of-one
	// buffer those passes are timed with. Both stay empty with KV off.
	reprefillQ deque[*activeReq]
	one        [1]trace.Request

	prefillDoneH sim.Handler
	decodeDoneH  sim.Handler

	decodeCap   int
	prefillTime func([]trace.Request) float64
	decodeTime  func(int) float64
}

type prefillEngine struct {
	instanceState
	freeAt float64
	busy   float64
	batch  []trace.Request // reused across passes; empty when idle
	re     *activeReq      // in-flight recompute pass (KV rebuild), nil otherwise
}

// decodeEngine is a batch with its busy time. Prefill engines hold no
// KV allocator: the simulation models decode-side HBM, where the cache
// lives for a sequence's whole generation (prefill working memory is
// covered by MaxFeasibleBatch validation).
type decodeEngine struct {
	batch
	busy float64
}

func newStaticSched(pool *poolSim) (*staticSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	decodeCap, blocks, err := sizeBatches(cfg, cfg.PrefillGPUs, cfg.DecodeGPUs)
	if err != nil {
		return nil, err
	}
	sc := &staticSched{
		pool:        pool,
		cfg:         cfg,
		prefills:    make([]prefillEngine, cfg.PrefillInstances),
		decodes:     make([]decodeEngine, cfg.DecodeInstances),
		decodeCap:   decodeCap,
		prefillTime: newPrefillTimer(cfg, opts, cfg.PrefillGPUs),
		decodeTime:  newDecodeTimer(cfg, opts, cfg.DecodeGPUs),
	}
	sc.prefillDoneH = sc.onPrefillDone
	sc.decodeDoneH = sc.onDecodeDone
	for j := range sc.decodes {
		sc.decodes[j].init(int32(len(sc.prefills)+j), cfg.KV, blocks)
	}
	return sc, nil
}

func (sc *staticSched) numInstances() int { return len(sc.prefills) + len(sc.decodes) }

func (sc *staticSched) state(id int) *instanceState {
	if id < len(sc.prefills) {
		return &sc.prefills[id].instanceState
	}
	return &sc.decodes[id-len(sc.prefills)].instanceState
}

func (sc *staticSched) gpus(id int) int {
	if id < len(sc.prefills) {
		return sc.cfg.PrefillGPUs
	}
	return sc.cfg.DecodeGPUs
}

func (sc *staticSched) shape() phaseShape {
	return phaseShape{
		prefillInstances: sc.cfg.PrefillInstances, prefillGPUs: sc.cfg.PrefillGPUs,
		decodeInstances: sc.cfg.DecodeInstances, decodeGPUs: sc.cfg.DecodeGPUs,
	}
}

func (sc *staticSched) totalGPUs() int {
	return sc.cfg.PrefillInstances*sc.cfg.PrefillGPUs + sc.cfg.DecodeInstances*sc.cfg.DecodeGPUs
}

//litegpu:hotpath
func (sc *staticSched) enqueue(r trace.Request) {
	sc.prefillQ.PushBack(r)
}

func (sc *staticSched) outstanding() int {
	outstanding := sc.prefillQ.Len() + sc.decodeQ.Len() + sc.reprefillQ.Len()
	for i := range sc.prefills {
		outstanding += len(sc.prefills[i].batch)
		if sc.prefills[i].re != nil {
			outstanding++
		}
	}
	for j := range sc.decodes {
		outstanding += len(sc.decodes[j].active)
	}
	return outstanding
}

// scalable exposes the decode pool to the autoscaler; prefill capacity
// is fixed — the static split sizes it for ingest, and parking it would
// starve TTFT rather than save meaningful decode capacity.
func (sc *staticSched) scalable() (lo, hi int) {
	return len(sc.prefills), len(sc.prefills) + len(sc.decodes)
}

func (sc *staticSched) idle(id int) bool {
	if id < len(sc.prefills) {
		e := &sc.prefills[id]
		return len(e.batch) == 0 && e.re == nil
	}
	e := &sc.decodes[id-len(sc.prefills)]
	return mathx.ExactEq(e.stepEnd, 0) && len(e.active) == 0
}

func (sc *staticSched) busy() (prefill, decode float64) {
	for i := range sc.prefills {
		prefill += sc.prefills[i].busy
	}
	for j := range sc.decodes {
		decode += sc.decodes[j].busy
	}
	return prefill, decode
}

//litegpu:hotpath
func (sc *staticSched) dispatch(now float64) {
	sc.dispatchPrefill(now)
	for j := range sc.decodes {
		e := &sc.decodes[j]
		if e.up && !e.parked && mathx.ExactEq(e.stepEnd, 0) {
			sc.startDecodeStep(j, now)
		}
	}
}

//litegpu:hotpath
func (sc *staticSched) dispatchPrefill(now float64) {
	for i := range sc.prefills {
		e := &sc.prefills[i]
		if !e.up {
			continue
		}
		// Recompute passes first: a preempted sequence blocks a decode
		// slot's worth of progress until its KV is rebuilt, so rebuilds
		// outrank fresh prompts. Each runs as a batch of one (the KV must
		// be recontiguous before decode resumes).
		for e.freeAt <= now && sc.reprefillQ.Len() > 0 {
			a := sc.reprefillQ.PopFront()
			if sc.pool.purged(nil, a, now) {
				// The client timed out while the sequence waited for its
				// KV rebuild: reclaim it instead of re-running prefill.
				continue
			}
			sc.one[0] = trace.Request{PromptTokens: kvTokens(a)}
			dt := sc.prefillTime(sc.one[:])
			if math.IsInf(dt, 1) {
				// The grown sequence no longer fits even a batch-of-one
				// pass: it can never resume.
				sc.pool.dropActive(nil, a, int32(i), now)
				continue
			}
			e.re = a
			if sc.pool.rec != nil {
				sc.pool.rec.Request(obs.PrefillStart, now, int32(sc.pool.idx), int32(i), int64(a.req.ID), float64(kvTokens(a)))
			}
			sc.startPass(i, dt, now)
		}
		for e.freeAt <= now && sc.prefillQ.Len() > 0 {
			// Purge cancelled prompts before staging a batch: their
			// clients already gave up.
			for sc.prefillQ.Len() > 0 && sc.pool.purgedID(sc.prefillQ.At(0).ID) {
				sc.prefillQ.PopFront()
			}
			if sc.prefillQ.Len() == 0 {
				break
			}
			n := sc.cfg.MaxPrefillBatch
			if n > sc.prefillQ.Len() {
				n = sc.prefillQ.Len()
			}
			// Stage the candidate batch in the engine's reusable buffer,
			// then shrink it until its KV footprint fits. The pool was
			// validated to fit the model at the nominal prompt length,
			// but an individual oversized prompt can still exceed
			// capacity alone (n reaches 0): drop it rather than let it
			// starve at the head of the queue forever. A prompt whose KV
			// needs more blocks than a decode instance has in total is
			// cut off the same way: decode admission is head-of-line, so
			// once prefilled it would block the decode queue forever.
			e.batch = sc.prefillQ.CopyPrefix(e.batch[:0], n)
			if al := sc.decodes[0].al; al != nil {
				for k, r := range e.batch {
					if kvNeverFits(al, r.PromptTokens) {
						n = k
						break
					}
				}
			}
			dt := math.Inf(1)
			for ; n >= 1; n-- {
				if dt = sc.prefillTime(e.batch[:n]); !math.IsInf(dt, 1) {
					break
				}
			}
			if n < 1 {
				sc.pool.drop(sc.prefillQ.PopFront(), int32(i), false, now)
				e.batch = e.batch[:0]
				continue
			}
			sc.prefillQ.DiscardFront(n)
			e.batch = e.batch[:n]
			if sc.pool.rec != nil {
				for _, r := range e.batch {
					sc.pool.rec.Request(obs.PrefillStart, now, int32(sc.pool.idx), int32(i), int64(r.ID), float64(n))
				}
			}
			sc.startPass(i, dt, now)
		}
	}
}

// startPass occupies prefill engine i for a pass of dt seconds,
// stretched on a straggler.
//
//litegpu:hotpath
func (sc *staticSched) startPass(i int, dt, now float64) {
	e := &sc.prefills[i]
	if e.slow > 0 {
		dt *= e.slow
	}
	e.freeAt = now + dt
	e.busy += dt
	e.doneEv = sc.pool.cs.eng.ScheduleCall(e.freeAt, prioPrefill+e.prio, sc.prefillDoneH, uint64(i))
}

//litegpu:hotpath
func (sc *staticSched) onPrefillDone(now float64, arg uint64) {
	i := int(arg)
	e := &sc.prefills[i]
	e.doneEv = 0
	if a := e.re; a != nil {
		e.re = nil
		sc.handOff(i, a, xferSwap, now)
	}
	for _, r := range e.batch {
		sc.handOff(i, sc.pool.newActive(r), xferKV, now)
	}
	e.batch = e.batch[:0]
	sc.pool.cs.requestDispatch(sc.pool, now)
}

// handOff moves a sequence prefilled on engine i to decode, unless its
// client timed out meanwhile: then the pass's compute is sunk, but no
// KV ships and no TTFT stamps. A fresh prompt (kind xferKV) joins the
// back of the decode queue and stamps TTFT there. A rebuilt sequence
// (xferSwap) already served its first token, so it returns to the head
// of the queue, unstamped. Without a fabric, or when the chosen decode
// instance shares engine i's scale-up node, the handoff is
// instantaneous, the pre-netsim semantics. Across nodes the KV cache
// (the model's full KV bytes per token, in whole blocks with paged KV)
// becomes a fabric transfer, and the sequence only reaches the queue, and TTFT
// only stamps, when the last byte lands (see clusterSim.onXfer).
//
//litegpu:hotpath
func (sc *staticSched) handOff(i int, a *activeReq, kind int8, now float64) {
	p := sc.pool
	if p.purged(nil, a, now) {
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), int32(i), int64(a.req.ID), 0)
	}
	if p.cs.fab != nil {
		dst := sc.pickDecodeDst()
		dstID := len(sc.prefills) + dst
		if p.nodeOf[i] != p.nodeOf[dstID] {
			p.startXfer(xferRec{kind: kind, src: int32(i), dst: int32(dstID), a: a, bytes: p.kvXferBytes(kvTokens(a))},
				p.epBase+i, p.epBase+dstID, sc.decodes[dst].prio, obs.XferStart, now)
			return
		}
	}
	if kind == xferSwap {
		sc.resume(a)
		return
	}
	sc.deliverKV(a, now)
}

// pickDecodeDst rotates KV handoffs across decode instances,
// preferring live ones (a handoff aimed at a down instance would
// immediately retarget); with every decode instance down the plain
// rotation applies — the transfer proceeds, and its delivery lands in
// the shared decode queue for whichever instance recovers.
//
//litegpu:hotpath
func (sc *staticSched) pickDecodeDst() int {
	n := len(sc.decodes)
	// Prefer instances actually taking traffic; fall back to any live
	// one (a parked target still lands in the shared queue), then to the
	// plain rotation. With autoscale off the first loop is the
	// historical scan.
	for k := 0; k < n; k++ {
		j := (sc.decodeRR + k) % n
		e := &sc.decodes[j]
		if e.up && !e.parked && !e.draining {
			sc.decodeRR = j + 1
			return j
		}
	}
	for k := 0; k < n; k++ {
		j := (sc.decodeRR + k) % n
		if sc.decodes[j].up {
			sc.decodeRR = j + 1
			return j
		}
	}
	j := sc.decodeRR % n
	sc.decodeRR++
	return j
}

// deliverKV lands a prefilled prompt's KV cache: its first token can
// ship now, so TTFT stamps, and it joins the back of the decode queue.
//
//litegpu:hotpath
func (sc *staticSched) deliverKV(a *activeReq, now float64) {
	sc.pool.stampTTFT(a, now)
	sc.decodeQ.PushBack(a)
}

// resume puts a sequence that holds no blocks back at the head of the
// decode queue. Head, not tail: it already consumed prefill capacity
// once and every queued request behind it is younger.
//
//litegpu:hotpath
func (sc *staticSched) resume(a *activeReq) {
	sc.decodeQ.PushFront(a)
}

// rebuild queues a preempted sequence for a recompute pass.
//
//litegpu:hotpath
func (sc *staticSched) rebuild(a *activeReq) {
	sc.reprefillQ.PushBack(a)
}

//litegpu:hotpath
func (sc *staticSched) startDecodeStep(j int, now float64) {
	e := &sc.decodes[j]
	p := sc.pool
	// Admit from the queue up to capacity, then step if non-empty. With
	// paged KV the head of the queue must also fit in free blocks;
	// admission is head-of-line (no skipping), so a blocked head waits
	// for completions or preemptions to free memory. A prompt too large
	// for an empty allocator never gets here: prefill staging drops it. A draining instance
	// admits nothing — it finishes its in-flight work and parks.
	for !e.draining && len(e.active) < sc.decodeCap && sc.decodeQ.Len() > 0 {
		a := sc.decodeQ.At(0)
		if p.purged(e.al, a, now) {
			sc.decodeQ.PopFront()
			continue
		}
		if e.al != nil && !p.kvAdmit(e.al, a, now) {
			break
		}
		sc.decodeQ.PopFront()
		e.join(a, now)
	}
	if e.al != nil {
		p.growBatch(&e.batch, nil, now)
	}
	if len(e.active) == 0 {
		if e.draining {
			p.parkInstance(&e.instanceState, now)
		}
		e.stepEnd = 0
		return
	}
	dt := sc.decodeTime(len(e.active))
	if e.slow > 0 {
		dt *= e.slow
	}
	e.stepEnd = now + dt
	e.busy += dt
	e.doneEv = p.cs.eng.ScheduleCall(e.stepEnd, prioDecode+e.prio, sc.decodeDoneH, uint64(j))
}

//litegpu:hotpath
func (sc *staticSched) onDecodeDone(now float64, arg uint64) {
	e := &sc.decodes[arg]
	e.doneEv = 0
	sc.pool.retire(&e.batch, now)
	e.stepEnd = 0
	sc.pool.cs.requestDispatch(sc.pool, now)
}

// fail reclaims a dead instance's in-flight work: the unfinished pass's
// busy tail is un-counted and the prompts (or generations) go back to
// the head of their queue — or are abandoned under DropOnFailure.
//
//litegpu:hotpath
func (sc *staticSched) fail(id int, now float64, drop bool) {
	p := sc.pool
	if id < len(sc.prefills) {
		e := &sc.prefills[id]
		if a := e.re; a != nil {
			// An in-flight recompute pass died with the engine: the
			// rebuilt KV is lost, so the sequence re-enters the rebuild
			// queue (or is abandoned).
			e.re = nil
			e.busy -= e.freeAt - now
			if p.lost(a.req.ID, int32(id), now, drop) {
				sc.reprefillQ.PushFront(a)
			} else {
				p.freeActive(a)
			}
		}
		if len(e.batch) > 0 {
			// The pass died before completing: un-count its unfinished
			// busy tail and put the prompts back at the head of the
			// queue (or abandon them).
			e.busy -= e.freeAt - now
			for _, r := range e.batch {
				p.lost(r.ID, int32(id), now, drop)
			}
			for i := len(e.batch) - 1; i >= 0 && !drop; i-- {
				sc.prefillQ.PushFront(e.batch[i])
			}
			e.batch = e.batch[:0]
		}
		e.freeAt = now
	} else {
		e := &sc.decodes[id-len(sc.prefills)]
		if e.stepEnd > 0 {
			e.busy -= e.stepEnd - now
			e.stepEnd = 0
		}
		p.failBatch(&e.batch, nil, now, drop)
	}
	if p.cs.fab != nil {
		p.failXfers(id, now, drop)
	}
}

// handoffLost settles a KV or recompute handoff whose transfer idx was
// cut by the failure of instance id, under the requeue policy. It
// reports whether the transfer restarted and stays live. A recompute
// handoff rebuilds again from the head of the reprefill queue, whichever
// end died. A KV handoff FROM a dead prefill engine lost its source KV:
// the prompt re-runs prefill from the queue head. One TO a dead decode
// engine retargets to a live instance and retransmits from byte zero
// (the duration sample keeps its original start, so the retry is visible
// as transfer tail latency).
//
//litegpu:hotpath
func (sc *staticSched) handoffLost(idx int32, id int, now float64) bool {
	p := sc.pool
	rec := &p.xfers[idx]
	if rec.kind == xferSwap {
		sc.reprefillQ.PushFront(rec.a)
		return false
	}
	if int(rec.src) == id {
		sc.prefillQ.PushFront(rec.a.req)
		p.freeActive(rec.a)
		return false
	}
	dst := sc.pickDecodeDst()
	dstID := len(sc.prefills) + dst
	if p.nodeOf[rec.src] == p.nodeOf[dstID] {
		// The retarget landed inside the source's scale-up node: the
		// same bypass handOff applies — deliver immediately over the
		// node interconnect instead of retransmitting on the fabric.
		sc.deliverKV(rec.a, now)
		return false
	}
	rec.dst = int32(dstID)
	p.sendXfer(idx, p.epBase+int(rec.src), p.epBase+dstID, sc.decodes[dst].prio)
	return true
}

//litegpu:hotpath
func (sc *staticSched) recovered(id int, now float64) {
	if id < len(sc.prefills) {
		sc.prefills[id].freeAt = now
	}
}
