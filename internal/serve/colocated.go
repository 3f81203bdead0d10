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

// defaultPrefillChunk is the Sarathi-style chunk size (prompt tokens)
// when Config.PrefillChunk is zero: large enough to keep chunk passes
// compute-efficient, small enough to bound the decode stall each chunk
// adds to a fused step.
const defaultPrefillChunk = 512

// colocEngine is one colocated instance: a single TP group that runs
// both phases, iterating over a batch of decoding requests while
// admitting and prefilling new ones.
type colocEngine struct {
	instanceState
	// active holds generations being decoded; pending holds admitted
	// requests whose prompts are not fully prefilled yet. Both reuse
	// their storage across iterations.
	active  []*activeReq
	pending deque[*activeReq]

	// One in-flight step: its end time, its prefill/decode second
	// split (for busy accounting and failure un-counting), how many
	// pending entries its prefill part completes, and — for chunked
	// steps — how many head-of-line prompt tokens it processes.
	stepEnd     float64 // 0 when idle
	stepPfx     float64
	stepDec     float64
	stepPrefill int
	stepChunk   int

	pBusy float64
	dBusy float64

	// al is the instance's paged KV allocator; nil with Config.KV off.
	// Admitted-but-pending requests hold a full prompt reservation — a
	// colocated instance prefills into the same HBM its decode cache
	// lives in.
	al *kv.Allocator
}

// colocSched implements the two colocated policies. With chunked=false
// it is ContinuousBatching: every iteration either prefills a batch of
// pending prompts in full (stalling ongoing decodes for the pass) or
// decodes one token for every active generation; finished requests free
// slots that are refilled from the queue at the next iteration. With
// chunked=true it is ChunkedPrefill: each iteration fuses one
// PrefillChunk-token slice of the head-of-line pending prompt with one
// decode step of the running batch, so the decode stall per token is
// bounded by the chunk size rather than the prompt length.
type colocSched struct {
	cs   *clusterSim
	pool *poolSim
	cfg  Config

	chunked   bool
	chunk     int
	instances int
	perGPUs   int

	engines []colocEngine
	q       deque[*activeReq]
	cap     int // max active+pending per instance (KV-limited)

	stepDoneH sim.Handler

	// Scratch buffers for timer queries, reused across iterations.
	one        [1]trace.Request
	reqScratch []trace.Request

	prefillTime func([]trace.Request) float64
	decodeTime  func(int) float64
	chunkTime   func(tokens int) float64
}

func newColocSched(cs *clusterSim, pool *poolSim) (*colocSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	n, g := cfg.colocShape()
	maxKV := inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, g, opts)
	if maxKV <= 0 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for decode (%s scheduler)",
			cfg.Model.Name, g, cfg.GPU.Name, cfg.Scheduler)
	}
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Prefill, g, opts) < 1 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for prefill (%s scheduler)",
			cfg.Model.Name, g, cfg.GPU.Name, cfg.Scheduler)
	}
	batchCap := cfg.MaxDecodeBatch
	if batchCap > maxKV {
		batchCap = maxKV
	}
	chunk := cfg.PrefillChunk
	if chunk <= 0 {
		chunk = defaultPrefillChunk
	}
	c := &colocSched{
		cs:          cs,
		pool:        pool,
		cfg:         cfg,
		chunked:     cfg.Scheduler == ChunkedPrefill,
		chunk:       chunk,
		instances:   n,
		perGPUs:     g,
		engines:     make([]colocEngine, n),
		cap:         batchCap,
		prefillTime: newPrefillTimer(cfg, opts, g),
		decodeTime:  newDecodeTimer(cfg, opts, g),
		chunkTime:   newChunkTimer(cfg, opts, g),
	}
	c.stepDoneH = c.onStepDone
	if cfg.KV.Enabled() {
		blocks, err := kvBlocksPerInstance(cfg, g)
		if err != nil {
			return nil, err
		}
		bt := cfg.KV.BlockTokensOrDefault()
		for j := range c.engines {
			c.engines[j].al = kv.NewAllocator(blocks, bt, cfg.KV.PrefixCache)
		}
		// With paged KV the allocator is the memory gate: the
		// whole-context MaxFeasibleBatch cap above no longer applies.
		c.cap = cfg.MaxDecodeBatch
	}
	return c, nil
}

func (c *colocSched) numInstances() int           { return len(c.engines) }
func (c *colocSched) state(id int) *instanceState { return &c.engines[id].instanceState }
func (c *colocSched) gpus(int) int                { return c.perGPUs }
func (c *colocSched) totalGPUs() int              { return c.instances * c.perGPUs }

// shape maps both metric phases onto the full instance set: a colocated
// pool's PrefillUtilization and DecodeUtilization are each the share of
// all-instance time spent in that phase (they sum to at most 1).
func (c *colocSched) shape() phaseShape {
	return phaseShape{
		prefillInstances: c.instances, prefillGPUs: c.perGPUs,
		decodeInstances: c.instances, decodeGPUs: c.perGPUs,
	}
}

//litegpu:hotpath
func (c *colocSched) enqueue(r trace.Request) {
	a := c.pool.newActive(r)
	a.promptLeft = r.PromptTokens
	c.q.PushBack(a)
}

func (c *colocSched) outstanding() int {
	outstanding := c.q.Len()
	for i := range c.engines {
		outstanding += len(c.engines[i].active) + c.engines[i].pending.Len()
	}
	return outstanding
}

// scalable exposes every colocated instance to the autoscaler.
func (c *colocSched) scalable() (lo, hi int) { return 0, len(c.engines) }

func (c *colocSched) idle(id int) bool {
	e := &c.engines[id]
	return mathx.ExactEq(e.stepEnd, 0) && len(e.active) == 0 && e.pending.Len() == 0
}

func (c *colocSched) busy() (prefill, decode float64) {
	for i := range c.engines {
		prefill += c.engines[i].pBusy
	}
	for i := range c.engines {
		decode += c.engines[i].dBusy
	}
	return prefill, decode
}

//litegpu:hotpath
func (c *colocSched) dispatch(now float64) {
	for j := range c.engines {
		e := &c.engines[j]
		if e.up && !e.parked && mathx.ExactEq(e.stepEnd, 0) {
			c.startStep(j, now)
		}
	}
}

// admit refills the engine's batch slots from the queue — the
// continuous-batching move: every iteration boundary, capacity freed by
// finished requests is handed to waiting ones. Prompts too large for
// any prefill pass, or needing more KV blocks than the instance has,
// can never be served and are dropped here, mirroring the static
// policy's prefill-staging drops.
//
//litegpu:hotpath
func (c *colocSched) admit(e *colocEngine, now float64) {
	for len(e.active)+e.pending.Len() < c.cap && c.q.Len() > 0 {
		a := c.q.At(0)
		if c.pool.clientOn && c.pool.isCancelled(a.req.ID) {
			// The client gave up while the request queued: reclaim it
			// before it occupies a batch slot.
			c.q.PopFront()
			c.pool.settleCancelled(a.req.ID, a)
			continue
		}
		if a.promptLeft > 0 {
			c.one[0] = a.req
			if e.al != nil && a.promptLeft != a.req.PromptTokens {
				// A recompute victim rebuilds its whole context, prompt
				// plus generated tokens; time the pass at that length.
				c.one[0].PromptTokens = a.promptLeft
			}
			if math.IsInf(c.prefillTime(c.one[:]), 1) || e.al != nil && kvNeverFits(e.al, c.one[0].PromptTokens) {
				c.q.PopFront()
				if c.pool.rec != nil {
					c.pool.rec.Request(obs.Drop, now, int32(c.pool.idx), -1, int64(a.req.ID), float64(a.req.PromptTokens))
				}
				c.pool.m.Dropped++
				c.pool.clientSettle(a.req.ID)
				c.pool.freeActive(a)
				continue
			}
		}
		if e.al != nil && !c.pool.kvAdmit(e.al, a, now) {
			break // head-of-line waits for blocks to free
		}
		c.q.PopFront()
		if a.promptLeft > 0 {
			e.pending.PushBack(a)
			continue
		}
		// A requeued request that already finished prefill rejoins the
		// decode batch directly.
		if !a.admitted {
			a.admitted = true
			a.decodeAt = now
		}
		e.active = append(e.active, a)
	}
}

// startStep begins one iteration on an idle engine. Continuous
// batching alternates full prefill passes (prioritized, vLLM-style)
// with whole-batch decode steps; chunked prefill fuses one prompt chunk
// with the decode step so both phases progress together.
//
//litegpu:hotpath
func (c *colocSched) startStep(j int, now float64) {
	e := &c.engines[j]
	if c.pool.clientOn {
		// Purge cancelled pending heads first: they hold full prompt KV
		// reservations that admission is waiting on.
		for e.pending.Len() > 0 {
			a := e.pending.At(0)
			if !c.pool.isCancelled(a.req.ID) {
				break
			}
			e.pending.PopFront()
			if e.al != nil {
				c.pool.kvRelease(e.al, a, now)
			}
			c.pool.settleCancelled(a.req.ID, a)
		}
	}
	if !e.draining {
		c.admit(e, now)
	}
	if e.al != nil && len(e.active) > 0 && (c.chunked || e.pending.Len() == 0) {
		// This step will decode: claim every survivor's token growth
		// before timing it (growth can shrink the batch by preemption).
		c.kvGrowActives(j, now)
	}
	var pDt, dDt float64
	nPrefill, chunkTokens := 0, 0
	if c.chunked {
		if e.pending.Len() > 0 {
			head := e.pending.At(0)
			chunkTokens = c.chunk
			if chunkTokens > head.promptLeft {
				chunkTokens = head.promptLeft
			}
			pDt = c.chunkTime(chunkTokens)
			nPrefill = 1
		}
		if len(e.active) > 0 {
			dDt = c.decodeTime(len(e.active))
		}
	} else if e.pending.Len() > 0 {
		n := c.cfg.MaxPrefillBatch
		if n > e.pending.Len() {
			n = e.pending.Len()
		}
		// Stage the pass in the reusable request scratch, then shrink it
		// until its combined KV footprint fits, as the static prefill
		// engines do; admit() already dropped prompts that cannot fit
		// alone, so n ≥ 1 always succeeds.
		c.reqScratch = c.reqScratch[:0]
		for i := 0; i < n; i++ {
			r := e.pending.At(i).req
			if e.al != nil && e.pending.At(i).promptLeft != r.PromptTokens {
				// Recompute victims re-prefill their whole context.
				r.PromptTokens = e.pending.At(i).promptLeft
			}
			c.reqScratch = append(c.reqScratch, r)
		}
		pDt = math.Inf(1)
		for ; n >= 1; n-- {
			if pDt = c.prefillTime(c.reqScratch[:n]); !math.IsInf(pDt, 1) {
				break
			}
		}
		nPrefill = n
	} else if len(e.active) > 0 {
		dDt = c.decodeTime(len(e.active))
	}
	if e.slow > 0 {
		// A straggling instance stretches both phases; scaling each
		// share keeps the busy-split consistent for failure un-counting.
		pDt *= e.slow
		dDt *= e.slow
	}
	dt := pDt + dDt
	if dt <= 0 || math.IsInf(dt, 1) {
		if e.draining && len(e.active) == 0 && e.pending.Len() == 0 {
			c.pool.parkInstance(&e.instanceState, now)
		}
		e.stepEnd = 0
		return
	}
	e.stepEnd = now + dt
	e.stepPfx, e.stepDec = pDt, dDt
	e.stepPrefill, e.stepChunk = nPrefill, chunkTokens
	e.pBusy += pDt
	e.dBusy += dDt
	if c.pool.rec != nil && nPrefill > 0 {
		if c.chunked {
			head := e.pending.At(0)
			c.pool.rec.Request(obs.PrefillStart, now, int32(c.pool.idx), int32(j), int64(head.req.ID), float64(chunkTokens))
		} else {
			for i := 0; i < nPrefill; i++ {
				c.pool.rec.Request(obs.PrefillStart, now, int32(c.pool.idx), int32(j), int64(e.pending.At(i).req.ID), float64(nPrefill))
			}
		}
	}
	// Steps that emit tokens complete in the decode priority band;
	// pure prefill passes complete in the prefill band, matching the
	// static policy's same-timestamp phase order.
	prio := prioDecode + e.prio
	if mathx.ExactEq(dDt, 0) {
		prio = prioPrefill + e.prio
	}
	e.doneEv = c.cs.eng.ScheduleCall(e.stepEnd, prio, c.stepDoneH, uint64(j))
}

// kvGrowActives claims the block growth for the token each active
// sequence emits this step. When the allocator runs dry, eviction
// prefers the cheapest memory first: pending reservations (nothing
// decoded yet — they just release and requeue, uncounted), then the
// newest active sequences (least sunk decode work). A sole occupant
// that still cannot grow is dropped — nothing is left to evict.
//
//litegpu:hotpath
func (c *colocSched) kvGrowActives(j int, now float64) {
	e := &c.engines[j]
	p := c.pool
	for i := 0; i < len(e.active); {
		a := e.active[i]
		if p.kvGrow(e.al, a, now) {
			i++
			continue
		}
		if e.pending.Len() > 0 {
			v := e.pending.PopFront()
			p.kvRelease(e.al, v, now)
			c.q.PushFront(v)
			continue
		}
		last := len(e.active) - 1
		if last > i {
			victim := e.active[last]
			e.active[last] = nil
			e.active = e.active[:last]
			c.preempt(j, victim, now)
			continue // retry a's growth with the freed blocks
		}
		if i > 0 {
			// a itself is the newest remaining sequence: evict it.
			e.active[last] = nil
			e.active = e.active[:last]
			c.preempt(j, a, now)
			return
		}
		// Sole occupant that cannot grow: it can never finish.
		if p.rec != nil {
			p.rec.Request(obs.Drop, now, int32(p.idx), int32(j), int64(a.req.ID), float64(a.req.PromptTokens))
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

// preempt evicts victim from engine j mid-generation: its blocks are
// released and its KV either rides the fabric out and back (Swap) or is
// discarded and rebuilt by a prefill pass over its whole context
// (Recompute — promptLeft is reset to prompt plus generated tokens, so
// re-admission routes it through the pending prefill path).
//
//litegpu:hotpath
func (c *colocSched) preempt(j int, victim *activeReq, now float64) {
	p := c.pool
	e := &c.engines[j]
	p.kvPreempt++
	tokens := kvTokens(victim)
	if p.rec != nil {
		p.rec.Request(obs.KVPreempt, now, int32(p.idx), int32(j), int64(victim.req.ID), float64(tokens))
	}
	p.kvRelease(e.al, victim, now)
	if c.cfg.KV.Policy == kv.Swap {
		c.startSwap(j, victim, now, tokens)
		return
	}
	p.kvRecompute += tokens
	victim.promptLeft = tokens
	c.q.PushFront(victim)
}

// startSwap prices a preemption swap as one fabric transfer of twice
// the sequence's block payload — swap-out to router-attached remote
// memory plus the eventual swap-in — delivered as an xferSwap.
//
//litegpu:hotpath
func (c *colocSched) startSwap(j int, a *activeReq, now float64, tokens int) {
	p := c.pool
	if c.cs.fab == nil {
		// No fabric configured: the round-trip is free.
		c.swapReturn(a, now)
		return
	}
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: xferSwap, src: int32(j), dst: int32(j),
		a: a, start: now,
		bytes: 2 * p.kvXferBytes(tokens),
	}
	rec.tid = c.cs.fab.Start(p.epBase+j, 0, rec.bytes,
		prioTransfer+c.engines[j].prio, c.cs.xferH, packArg(p.idx, int(idx)))
	p.liveXfers = append(p.liveXfers, idx)
	if p.rec != nil {
		p.rec.Request(obs.KVSwapOut, now, int32(p.idx), int32(j), int64(a.req.ID), rec.bytes)
	}
}

// swapReturn puts a preempted sequence back at the head of the queue
// once its KV is recoverable (its promptLeft is zero, so admission
// routes it straight back into a decode batch).
//
//litegpu:hotpath
func (c *colocSched) swapReturn(a *activeReq, now float64) {
	c.q.PushFront(a)
}

//litegpu:hotpath
func (c *colocSched) onStepDone(now float64, arg uint64) {
	c.completeStep(int(arg), now)
}

//litegpu:hotpath
func (c *colocSched) completeStep(j int, now float64) {
	e := &c.engines[j]
	e.doneEv = 0
	if e.stepDec > 0 {
		w := 0
		for _, a := range e.active {
			if c.pool.clientOn && c.pool.isCancelled(a.req.ID) {
				// The client timed out mid-step: the batch member leaves
				// without emitting; its step share is sunk cost.
				if e.al != nil {
					c.pool.kvRelease(e.al, a, now)
				}
				c.pool.settleCancelled(a.req.ID, a)
				continue
			}
			if !c.pool.emitToken(a, now) {
				e.active[w] = a
				w++
			} else {
				if e.al != nil {
					c.pool.kvRelease(e.al, a, now)
				}
				c.pool.freeActive(a)
			}
		}
		clearTail(e.active, w)
		e.active = e.active[:w]
	}
	if e.stepPrefill > 0 {
		if c.chunked {
			head := e.pending.At(0)
			head.promptLeft -= e.stepChunk
			if head.promptLeft <= 0 {
				head.promptLeft = 0
				e.pending.PopFront()
				if c.pool.clientOn && c.pool.isCancelled(head.req.ID) {
					if e.al != nil {
						c.pool.kvRelease(e.al, head, now)
					}
					c.pool.settleCancelled(head.req.ID, head)
				} else {
					if c.pool.rec != nil {
						c.pool.rec.Request(obs.PrefillEnd, now, int32(c.pool.idx), int32(j), int64(head.req.ID), 0)
					}
					c.finishPrefill(head, now)
					e.active = append(e.active, head)
				}
			} else if c.pool.rec != nil {
				c.pool.rec.Request(obs.Chunk, now, int32(c.pool.idx), int32(j), int64(head.req.ID), float64(head.promptLeft))
			}
		} else {
			for k := 0; k < e.stepPrefill; k++ {
				a := e.pending.PopFront()
				a.promptLeft = 0
				if c.pool.clientOn && c.pool.isCancelled(a.req.ID) {
					if e.al != nil {
						c.pool.kvRelease(e.al, a, now)
					}
					c.pool.settleCancelled(a.req.ID, a)
					continue
				}
				if c.pool.rec != nil {
					c.pool.rec.Request(obs.PrefillEnd, now, int32(c.pool.idx), int32(j), int64(a.req.ID), 0)
				}
				c.finishPrefill(a, now)
				e.active = append(e.active, a)
			}
		}
	}
	e.stepEnd, e.stepPfx, e.stepDec = 0, 0, 0
	e.stepPrefill, e.stepChunk = 0, 0
	c.cs.requestDispatch(c.pool, now)
}

// finishPrefill records the TTFT sample (exactly once per request, no
// matter how many requeues preceded it) and stamps decode admission.
//
//litegpu:hotpath
func (c *colocSched) finishPrefill(a *activeReq, now float64) {
	if !a.ttftDone {
		a.ttftDone = true
		c.pool.recordTTFT(now-float64(a.req.Arrival), a.req.Class)
	}
	if !a.admitted {
		a.admitted = true
		a.decodeAt = now
	}
}

// fail reclaims a dead instance's in-flight work. The aborted step's
// busy tail is un-counted proportionally from both phases; chunk
// progress is only ever applied at step completion, so the in-flight
// chunk is simply lost — requeued prompts resume from their last
// completed chunk with no token duplicated or skipped.
//
//litegpu:hotpath
func (c *colocSched) fail(id int, now float64, drop bool) {
	e := &c.engines[id]
	if e.stepEnd > 0 {
		if total := e.stepPfx + e.stepDec; total > 0 {
			frac := (e.stepEnd - now) / total
			e.pBusy -= e.stepPfx * frac
			e.dBusy -= e.stepDec * frac
		}
		e.stepEnd, e.stepPfx, e.stepDec = 0, 0, 0
		e.stepPrefill, e.stepChunk = 0, 0
	}
	if e.al != nil {
		// The HBM died with the instance: every resident sequence, every
		// pending reservation, and the shared prefix cache are gone.
		// Requeued requests re-admit from scratch on a live instance.
		for _, a := range e.active {
			a.kvSeq = -1
		}
		for i := 0; i < e.pending.Len(); i++ {
			e.pending.At(i).kvSeq = -1
		}
		if used := e.al.InUse(); used != 0 {
			c.pool.kvAccount(now, -used)
		}
		e.al.Reset()
	}
	n := e.pending.Len() + len(e.active)
	if n > 0 {
		if c.pool.rec != nil {
			k := obs.Requeue
			if drop {
				k = obs.Drop
			}
			for i := 0; i < e.pending.Len(); i++ {
				c.pool.rec.Request(k, now, int32(c.pool.idx), int32(id), int64(e.pending.At(i).req.ID), 0)
			}
			for _, a := range e.active {
				c.pool.rec.Request(k, now, int32(c.pool.idx), int32(id), int64(a.req.ID), 0)
			}
		}
		if drop {
			c.pool.m.DroppedOnFailure += n
			for e.pending.Len() > 0 {
				a := e.pending.PopFront()
				c.pool.clientSettle(a.req.ID)
				c.pool.freeActive(a)
			}
			for _, a := range e.active {
				c.pool.clientSettle(a.req.ID)
				c.pool.freeActive(a)
			}
		} else {
			c.pool.m.Requeued += n
			// Requeue ahead of the waiting queue, preserving [pending...,
			// active..., old queue...] order: push active first, then
			// pending, each back-to-front.
			for i := len(e.active) - 1; i >= 0; i-- {
				c.q.PushFront(e.active[i])
			}
			for i := e.pending.Len() - 1; i >= 0; i-- {
				c.q.PushFront(e.pending.At(i))
			}
			e.pending.DiscardFront(e.pending.Len())
		}
		clearTail(e.active, 0)
		e.active = e.active[:0]
	}
	if e.al != nil && c.cs.fab != nil {
		c.failSwaps(id, now, drop)
	}
}

// failSwaps reclaims in-flight swap transfers touching a dead instance.
// The swapped-out copy lives in remote memory and survives the failure;
// under the requeue policy the sequence just needs a live instance to
// swap back into, under drop it is abandoned.
//
//litegpu:hotpath
func (c *colocSched) failSwaps(id int, now float64, drop bool) {
	p := c.pool
	live := p.liveXfers
	w := 0
	for _, idx := range live {
		rec := &p.xfers[idx]
		if int(rec.src) != id && int(rec.dst) != id {
			live[w] = idx
			w++
			continue
		}
		c.cs.fab.Cancel(rec.tid)
		if drop {
			p.m.DroppedOnFailure++
			p.clientSettle(rec.a.req.ID)
			p.freeActive(rec.a)
		} else {
			p.m.Requeued++
			c.q.PushFront(rec.a)
		}
		p.freeXfer(idx)
	}
	p.liveXfers = live[:w]
}

func (c *colocSched) recovered(int, float64) {
	// Nothing instance-local to restore: an idle engine (stepEnd 0)
	// picks up work at the dispatch pass that follows recovery.
}

// deliverKV is unreachable: colocated instances run both phases, so no
// KV cache ever crosses the fabric between them.
func (c *colocSched) deliverKV(*activeReq, float64) {
	panic("serve: KV handoff delivered to a colocated scheduler")
}

// newChunkTimer returns a memoized chunk-prefill duration function:
// the analytical prefill cost of one batch-1 pass over `tokens` prompt
// tokens, quantized to 64-token buckets for cache efficiency.
func newChunkTimer(cfg Config, opts inference.Options, gpus int) func(int) float64 {
	cache := make(map[int]float64)
	return func(tokens int) float64 {
		if tokens <= 0 {
			return 0
		}
		bucket := (tokens + 63) / 64
		if v, ok := cache[bucket]; ok {
			return v
		}
		o := opts
		o.PromptLen = bucket * 64
		est, err := inference.Run(cfg.GPU, cfg.Model, inference.Prefill, gpus, 1, o)
		v := math.Inf(1)
		if err == nil {
			v = float64(est.Latency)
		}
		cache[bucket] = v
		return v
	}
}
