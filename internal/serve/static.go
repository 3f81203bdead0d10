package serve

import (
	"fmt"
	"math"

	"litegpu/internal/inference"
	"litegpu/internal/kv"
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
	cs   *clusterSim
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

type decodeEngine struct {
	instanceState
	active  []*activeReq // reused across steps
	stepEnd float64      // 0 when idle
	busy    float64
	// al is the instance's paged KV allocator; nil with Config.KV off.
	// Prefill engines hold none: the simulation models decode-side HBM,
	// where the cache lives for a sequence's whole generation (prefill
	// working memory is covered by MaxFeasibleBatch validation).
	al *kv.Allocator
}

func newStaticSched(cs *clusterSim, pool *poolSim) (*staticSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	maxKV := inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, cfg.DecodeGPUs, opts)
	if maxKV <= 0 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for decode",
			cfg.Model.Name, cfg.DecodeGPUs, cfg.GPU.Name)
	}
	decodeCap := cfg.MaxDecodeBatch
	if decodeCap > maxKV {
		decodeCap = maxKV
	}
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Prefill, cfg.PrefillGPUs, opts) < 1 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for prefill",
			cfg.Model.Name, cfg.PrefillGPUs, cfg.GPU.Name)
	}
	sc := &staticSched{
		cs:          cs,
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
	if cfg.KV.Enabled() {
		blocks, err := kvBlocksPerInstance(cfg, cfg.DecodeGPUs)
		if err != nil {
			return nil, err
		}
		bt := cfg.KV.BlockTokensOrDefault()
		for j := range sc.decodes {
			sc.decodes[j].al = kv.NewAllocator(blocks, bt, cfg.KV.PrefixCache)
		}
		// With paged KV the allocator is the memory gate: admission is
		// bounded by free blocks at actual sequence lengths, so the
		// whole-context MaxFeasibleBatch cap above no longer applies.
		sc.decodeCap = cfg.MaxDecodeBatch
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
			a := sc.reprefillQ.At(0)
			if sc.pool.clientOn && sc.pool.isCancelled(a.req.ID) {
				// The client timed out while the sequence waited for its
				// KV rebuild: reclaim it instead of re-running prefill.
				sc.reprefillQ.PopFront()
				sc.pool.settleCancelled(a.req.ID, a)
				continue
			}
			sc.one[0] = trace.Request{PromptTokens: kvTokens(a)}
			dt := sc.prefillTime(sc.one[:])
			if math.IsInf(dt, 1) {
				// The grown sequence no longer fits even a batch-of-one
				// pass: it can never resume.
				sc.reprefillQ.PopFront()
				sc.pool.m.Dropped++
				sc.pool.clientSettle(a.req.ID)
				sc.pool.freeActive(a)
				continue
			}
			sc.reprefillQ.PopFront()
			if e.slow > 0 {
				dt *= e.slow
			}
			e.re = a
			e.freeAt = now + dt
			e.busy += dt
			if sc.pool.rec != nil {
				sc.pool.rec.Request(obs.PrefillStart, now, int32(sc.pool.idx), int32(i), int64(a.req.ID), float64(kvTokens(a)))
			}
			e.doneEv = sc.cs.eng.ScheduleCall(e.freeAt, prioPrefill+e.prio, sc.prefillDoneH, uint64(i))
		}
		for e.freeAt <= now && sc.prefillQ.Len() > 0 {
			if sc.pool.clientOn {
				// Purge cancelled prompts before staging a batch: their
				// clients already gave up.
				for sc.prefillQ.Len() > 0 {
					r := sc.prefillQ.At(0)
					if !sc.pool.isCancelled(r.ID) {
						break
					}
					sc.prefillQ.PopFront()
					sc.pool.settleCancelled(r.ID, nil)
				}
				if sc.prefillQ.Len() == 0 {
					break
				}
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
				r := sc.prefillQ.PopFront()
				sc.pool.m.Dropped++
				sc.pool.clientSettle(r.ID)
				if sc.pool.rec != nil {
					sc.pool.rec.Request(obs.Drop, now, int32(sc.pool.idx), int32(i), int64(r.ID), float64(r.PromptTokens))
				}
				e.batch = e.batch[:0]
				continue
			}
			sc.prefillQ.DiscardFront(n)
			e.batch = e.batch[:n]
			if e.slow > 0 {
				dt *= e.slow
			}
			e.freeAt = now + dt
			e.busy += dt
			if sc.pool.rec != nil {
				for _, r := range e.batch {
					sc.pool.rec.Request(obs.PrefillStart, now, int32(sc.pool.idx), int32(i), int64(r.ID), float64(n))
				}
			}
			e.doneEv = sc.cs.eng.ScheduleCall(e.freeAt, prioPrefill+e.prio, sc.prefillDoneH, uint64(i))
		}
	}
}

//litegpu:hotpath
func (sc *staticSched) onPrefillDone(now float64, arg uint64) {
	sc.completePrefill(int(arg), now)
}

//litegpu:hotpath
func (sc *staticSched) completePrefill(i int, now float64) {
	e := &sc.prefills[i]
	e.doneEv = 0
	if a := e.re; a != nil {
		e.re = nil
		sc.finishReprefill(i, a, now)
	}
	for _, r := range e.batch {
		sc.finishPrefillReq(i, r, now)
	}
	e.batch = e.batch[:0]
	sc.cs.requestDispatch(sc.pool, now)
}

// finishPrefillReq moves one prefilled request toward decode. Without
// a fabric (or when the chosen decode instance shares the prefill
// engine's scale-up node) the handoff is instantaneous, exactly the
// pre-netsim semantics: TTFT stamps here and the request joins the
// decode queue. Across nodes, the KV cache — the model's full
// KV-bytes-per-token times the prompt length — becomes a fabric
// transfer, and the request only becomes decodable (and TTFT only
// stamps) when the last byte lands.
//
//litegpu:hotpath
func (sc *staticSched) finishPrefillReq(i int, r trace.Request, now float64) {
	p := sc.pool
	if p.clientOn && p.isCancelled(r.ID) {
		// The client timed out while the prompt was mid-prefill: the
		// pass's compute is sunk, but no KV ships and no TTFT stamps.
		p.settleCancelled(r.ID, nil)
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), int32(i), int64(r.ID), 0)
	}
	if sc.cs.fab == nil {
		p.recordTTFT(now-float64(r.Arrival), r.Class)
		sc.decodeQ.PushBack(p.newActive(r))
		return
	}
	dst := sc.pickDecodeDst()
	dstID := len(sc.prefills) + dst
	if p.nodeOf[i] == p.nodeOf[dstID] {
		p.recordTTFT(now-float64(r.Arrival), r.Class)
		sc.decodeQ.PushBack(p.newActive(r))
		return
	}
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: xferKV, src: int32(i), dst: int32(dstID),
		a: p.newActive(r), start: now,
		bytes: p.kvXferBytes(r.PromptTokens),
	}
	rec.tid = sc.cs.fab.Start(p.epBase+i, p.epBase+dstID, rec.bytes,
		prioTransfer+sc.decodes[dst].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
	p.liveXfers = append(p.liveXfers, idx)
	if p.rec != nil {
		p.rec.Request(obs.XferStart, now, int32(p.idx), int32(i), int64(r.ID), rec.bytes)
	}
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

// deliverKV lands a fabric-delivered KV cache: the request joins the
// decode queue (TTFT was stamped by the delivery handler).
//
//litegpu:hotpath
func (sc *staticSched) deliverKV(a *activeReq, now float64) {
	sc.decodeQ.PushBack(a)
}

// finishReprefill hands a recomputed KV cache back to decode: same
// node-bypass logic as finishPrefillReq, but the sequence already served
// its first token, so no TTFT stamps and the cross-node leg rides an
// xferSwap whose delivery lands in swapReturn.
//
//litegpu:hotpath
func (sc *staticSched) finishReprefill(i int, a *activeReq, now float64) {
	p := sc.pool
	if p.clientOn && p.isCancelled(a.req.ID) {
		p.settleCancelled(a.req.ID, a)
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), int32(i), int64(a.req.ID), 0)
	}
	if sc.cs.fab == nil {
		sc.decodeQ.PushFront(a)
		return
	}
	dst := sc.pickDecodeDst()
	dstID := len(sc.prefills) + dst
	if p.nodeOf[i] == p.nodeOf[dstID] {
		sc.decodeQ.PushFront(a)
		return
	}
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: xferSwap, src: int32(i), dst: int32(dstID),
		a: a, start: now,
		bytes: p.kvXferBytes(kvTokens(a)),
	}
	rec.tid = sc.cs.fab.Start(p.epBase+i, p.epBase+dstID, rec.bytes,
		prioTransfer+sc.decodes[dst].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
	p.liveXfers = append(p.liveXfers, idx)
	if p.rec != nil {
		p.rec.Request(obs.XferStart, now, int32(p.idx), int32(i), int64(a.req.ID), rec.bytes)
	}
}

// swapReturn puts a preempted sequence back at the head of the decode
// queue once its KV is recoverable again (swap round-trip delivered, or
// recompute pass handed off). Head, not tail: it already consumed
// prefill capacity once and every queued request behind it is younger.
//
//litegpu:hotpath
func (sc *staticSched) swapReturn(a *activeReq, now float64) {
	sc.decodeQ.PushFront(a)
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
		if p.clientOn && p.isCancelled(a.req.ID) {
			sc.decodeQ.PopFront()
			if e.al != nil {
				p.kvRelease(e.al, a, now)
			}
			p.settleCancelled(a.req.ID, a)
			continue
		}
		if e.al != nil && !p.kvAdmit(e.al, a, now) {
			break
		}
		sc.decodeQ.PopFront()
		if !a.admitted {
			a.admitted = true
			a.decodeAt = now
		}
		e.active = append(e.active, a)
	}
	if e.al != nil {
		sc.kvGrowActives(j, now)
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
	e.doneEv = sc.cs.eng.ScheduleCall(e.stepEnd, prioDecode+e.prio, sc.decodeDoneH, uint64(j))
}

// kvGrowActives claims the block growth for the token each active
// sequence emits this step. When the allocator runs dry the newest
// admissions are preempted first (they have the least sunk work), and a
// sole occupant that still cannot grow is dropped — with the whole
// allocator to itself there is nothing left to evict.
//
//litegpu:hotpath
func (sc *staticSched) kvGrowActives(j int, now float64) {
	e := &sc.decodes[j]
	p := sc.pool
	for i := 0; i < len(e.active); {
		a := e.active[i]
		if p.kvGrow(e.al, a, now) {
			i++
			continue
		}
		last := len(e.active) - 1
		if last > i {
			victim := e.active[last]
			e.active[last] = nil
			e.active = e.active[:last]
			sc.preempt(j, victim, now)
			continue // retry a's growth with the freed blocks
		}
		if i > 0 {
			// a itself is the newest remaining sequence: evict it.
			e.active[last] = nil
			e.active = e.active[:last]
			sc.preempt(j, a, now)
			return
		}
		// Sole occupant that cannot grow: it can never finish.
		if p.rec != nil {
			p.rec.Request(obs.Drop, now, int32(p.idx), int32(len(sc.prefills)+j), int64(a.req.ID), float64(a.req.PromptTokens))
		}
		p.kvRelease(e.al, a, now)
		p.m.Dropped++
		p.clientSettle(a.req.ID)
		p.freeActive(a)
		e.active[0] = nil
		e.active = e.active[:0]
		return
	}
}

// preempt evicts victim from decode engine j: its blocks are released
// and its KV either rides the fabric to remote memory and back (Swap)
// or is discarded and rebuilt by a prefill pass (Recompute).
//
//litegpu:hotpath
func (sc *staticSched) preempt(j int, victim *activeReq, now float64) {
	p := sc.pool
	e := &sc.decodes[j]
	p.kvPreempt++
	tokens := kvTokens(victim)
	if p.rec != nil {
		p.rec.Request(obs.KVPreempt, now, int32(p.idx), int32(len(sc.prefills)+j), int64(victim.req.ID), float64(tokens))
	}
	p.kvRelease(e.al, victim, now)
	if sc.cfg.KV.Policy == kv.Swap {
		sc.startSwap(j, victim, now, tokens)
		return
	}
	p.kvRecompute += tokens
	sc.reprefillQ.PushBack(victim)
}

// startSwap prices a preemption swap as one fabric transfer of twice
// the sequence's block payload — the swap-out to router-attached remote
// memory plus the eventual swap-in — delivered as an xferSwap so the
// sequence rejoins decode with no TTFT stamp.
//
//litegpu:hotpath
func (sc *staticSched) startSwap(j int, a *activeReq, now float64, tokens int) {
	p := sc.pool
	if sc.cs.fab == nil {
		// No fabric configured: the historical infinite interconnect —
		// the round-trip is free and the sequence requeues immediately.
		sc.swapReturn(a, now)
		return
	}
	dstID := len(sc.prefills) + j
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: xferSwap, src: int32(dstID), dst: int32(dstID),
		a: a, start: now,
		bytes: 2 * p.kvXferBytes(tokens),
	}
	rec.tid = sc.cs.fab.Start(p.epBase+dstID, 0, rec.bytes,
		prioTransfer+sc.decodes[j].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
	p.liveXfers = append(p.liveXfers, idx)
	if p.rec != nil {
		p.rec.Request(obs.KVSwapOut, now, int32(p.idx), int32(dstID), int64(a.req.ID), rec.bytes)
	}
}

//litegpu:hotpath
func (sc *staticSched) onDecodeDone(now float64, arg uint64) {
	sc.completeDecodeStep(int(arg), now)
}

//litegpu:hotpath
func (sc *staticSched) completeDecodeStep(j int, now float64) {
	e := &sc.decodes[j]
	e.doneEv = 0
	// Filter survivors in place; completed requests recycle. A batch
	// member whose client timed out since the step began leaves without
	// emitting — its step share is sunk cost, like a real cancelled
	// stream's.
	w := 0
	for _, a := range e.active {
		if sc.pool.clientOn && sc.pool.isCancelled(a.req.ID) {
			if e.al != nil {
				sc.pool.kvRelease(e.al, a, now)
			}
			sc.pool.settleCancelled(a.req.ID, a)
			continue
		}
		if !sc.pool.emitToken(a, now) {
			e.active[w] = a
			w++
		} else {
			if e.al != nil {
				sc.pool.kvRelease(e.al, a, now)
			}
			sc.pool.freeActive(a)
		}
	}
	clearTail(e.active, w)
	e.active = e.active[:w]
	e.stepEnd = 0
	sc.cs.requestDispatch(sc.pool, now)
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
			if p.rec != nil {
				k := obs.Requeue
				if drop {
					k = obs.Drop
				}
				p.rec.Request(k, now, int32(p.idx), int32(id), int64(a.req.ID), 0)
			}
			if drop {
				p.m.DroppedOnFailure++
				p.clientSettle(a.req.ID)
				p.freeActive(a)
			} else {
				p.m.Requeued++
				sc.reprefillQ.PushFront(a)
			}
		}
		if len(e.batch) > 0 {
			// The pass died before completing: un-count its unfinished
			// busy tail and put the prompts back at the head of the
			// queue (or abandon them).
			e.busy -= e.freeAt - now
			if p.rec != nil {
				k := obs.Requeue
				if drop {
					k = obs.Drop
				}
				for _, r := range e.batch {
					p.rec.Request(k, now, int32(p.idx), int32(id), int64(r.ID), 0)
				}
			}
			if drop {
				p.m.DroppedOnFailure += len(e.batch)
				for _, r := range e.batch {
					p.clientSettle(r.ID)
				}
			} else {
				p.m.Requeued += len(e.batch)
				for i := len(e.batch) - 1; i >= 0; i-- {
					sc.prefillQ.PushFront(e.batch[i])
				}
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
		if e.al != nil {
			// The HBM died with the instance: every resident sequence —
			// and the shared prefix cache — is gone. Requeued sequences
			// re-admit from scratch on a surviving instance.
			for _, a := range e.active {
				a.kvSeq = -1
			}
			if used := e.al.InUse(); used != 0 {
				p.kvAccount(now, -used)
			}
			e.al.Reset()
		}
		if len(e.active) > 0 {
			if p.rec != nil {
				k := obs.Requeue
				if drop {
					k = obs.Drop
				}
				for _, a := range e.active {
					p.rec.Request(k, now, int32(p.idx), int32(id), int64(a.req.ID), 0)
				}
			}
			if drop {
				p.m.DroppedOnFailure += len(e.active)
				for _, a := range e.active {
					p.clientSettle(a.req.ID)
					p.freeActive(a)
				}
			} else {
				p.m.Requeued += len(e.active)
				for i := len(e.active) - 1; i >= 0; i-- {
					sc.decodeQ.PushFront(e.active[i])
				}
			}
			clearTail(e.active, 0)
			e.active = e.active[:0]
		}
	}
	if sc.cs.fab != nil {
		sc.failXfers(id, now, drop)
	}
}

// failXfers reclaims in-flight KV handoffs touching a dead instance.
// A transfer FROM a dead prefill engine lost its source KV: under the
// requeue policy the prompt re-runs prefill from the queue head, under
// drop it is abandoned. A transfer TO a dead decode engine retargets
// to a live instance and retransmits from byte zero (the duration
// sample keeps its original start, so the retry is visible as transfer
// tail latency) — or is abandoned under drop.
//
//litegpu:hotpath
func (sc *staticSched) failXfers(id int, now float64, drop bool) {
	p := sc.pool
	live := p.liveXfers
	w := 0
	for _, idx := range live {
		rec := &p.xfers[idx]
		if int(rec.src) != id && int(rec.dst) != id {
			live[w] = idx
			w++
			continue
		}
		sc.cs.fab.Cancel(rec.tid)
		if drop {
			p.m.DroppedOnFailure++
			p.clientSettle(rec.a.req.ID)
			p.freeActive(rec.a)
			p.freeXfer(idx)
			continue
		}
		if rec.kind == xferSwap {
			p.m.Requeued++
			if int(rec.src) < len(sc.prefills) {
				// A recompute handoff: the rebuilt KV died with its
				// prefill engine, so the sequence rebuilds again.
				sc.reprefillQ.PushFront(rec.a)
			} else {
				// A swap round-trip: the swapped-out copy survives in
				// remote memory; the sequence just needs a live instance
				// to swap back into.
				sc.decodeQ.PushFront(rec.a)
			}
			p.freeXfer(idx)
			continue
		}
		p.m.Requeued++
		if int(rec.src) == id {
			sc.prefillQ.PushFront(rec.a.req)
			p.freeActive(rec.a)
			p.freeXfer(idx)
			continue
		}
		dst := sc.pickDecodeDst()
		dstID := len(sc.prefills) + dst
		if p.nodeOf[rec.src] == p.nodeOf[dstID] {
			// The retarget landed inside the source's scale-up node:
			// the same bypass finishPrefillReq applies — deliver
			// immediately over the node interconnect instead of
			// retransmitting on the fabric.
			p.recordTTFT(now-float64(rec.a.req.Arrival), rec.a.req.Class)
			sc.decodeQ.PushBack(rec.a)
			p.freeXfer(idx)
			continue
		}
		rec.dst = int32(dstID)
		rec.tid = sc.cs.fab.Start(p.epBase+int(rec.src), p.epBase+dstID, rec.bytes,
			prioTransfer+sc.decodes[dst].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
		live[w] = idx
		w++
	}
	p.liveXfers = live[:w]
}

//litegpu:hotpath
func (sc *staticSched) recovered(id int, now float64) {
	if id < len(sc.prefills) {
		sc.prefills[id].freeAt = now
	}
}

// clearTail nils pointers beyond w so truncated slices do not retain
// recycled or requeued requests.
//
//litegpu:hotpath
func clearTail(s []*activeReq, w int) {
	for i := w; i < len(s); i++ {
		s[i] = nil
	}
}
