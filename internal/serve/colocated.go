package serve

import (
	"math"

	"litegpu/internal/inference"
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
	// The batch holds the generations being decoded; pending holds
	// admitted requests whose prompts are not fully prefilled yet. With
	// paged KV each pending request holds a full prompt reservation in
	// the batch's allocator: a colocated instance prefills into the same
	// HBM its decode cache lives in.
	batch
	pending deque[*activeReq]

	// The in-flight step's prefill/decode second split (for busy
	// accounting and failure un-counting), how many pending entries its
	// prefill part completes, and — for chunked steps — how many
	// head-of-line prompt tokens it processes.
	stepPfx     float64
	stepDec     float64
	stepPrefill int
	stepChunk   int

	pBusy float64
	dBusy float64
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

func newColocSched(pool *poolSim) (*colocSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	n, g := cfg.colocShape()
	batchCap, blocks, err := sizeBatches(cfg, g, g)
	if err != nil {
		return nil, err
	}
	chunk := cfg.PrefillChunk
	if chunk <= 0 {
		chunk = defaultPrefillChunk
	}
	c := &colocSched{
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
	for j := range c.engines {
		c.engines[j].init(int32(j), cfg.KV, blocks)
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
		if c.pool.purged(e.al, a, now) {
			// The client gave up while the request queued: reclaim it
			// before it occupies a batch slot.
			c.q.PopFront()
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
				c.pool.dropActive(e.al, a, -1, now)
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
		e.join(a, now)
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
	// Purge cancelled pending heads first: they hold full prompt KV
	// reservations that admission is waiting on.
	for e.pending.Len() > 0 && c.pool.purged(e.al, e.pending.At(0), now) {
		e.pending.PopFront()
	}
	if !e.draining {
		c.admit(e, now)
	}
	if e.al != nil && len(e.active) > 0 && (c.chunked || e.pending.Len() == 0) {
		// This step will decode: claim every survivor's token growth
		// before timing it (growth can shrink the batch by preemption).
		c.pool.growBatch(&e.batch, &e.pending, now)
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
	e.doneEv = c.pool.cs.eng.ScheduleCall(e.stepEnd, prio, c.stepDoneH, uint64(j))
}

// resume puts a sequence that holds no blocks back at the head of the
// queue. Admission routes it by its promptLeft: straight back into a
// decode batch, or into pending when prompt tokens remain.
//
//litegpu:hotpath
func (c *colocSched) resume(a *activeReq) {
	c.q.PushFront(a)
}

// rebuild requeues a preempted sequence at the head of the queue with
// promptLeft reset to prompt plus generated tokens, so re-admission
// routes it through the pending prefill path.
//
//litegpu:hotpath
func (c *colocSched) rebuild(a *activeReq) {
	a.promptLeft = kvTokens(a)
	c.q.PushFront(a)
}

//litegpu:hotpath
func (c *colocSched) onStepDone(now float64, arg uint64) {
	e := &c.engines[arg]
	e.doneEv = 0
	if e.stepDec > 0 {
		c.pool.retire(&e.batch, now)
	}
	if e.stepPrefill > 0 {
		if c.chunked {
			head := e.pending.At(0)
			head.promptLeft -= e.stepChunk
			if head.promptLeft <= 0 {
				head.promptLeft = 0
				e.pending.PopFront()
				c.finishPrefill(e, head, now)
			} else if c.pool.rec != nil {
				c.pool.rec.Request(obs.Chunk, now, int32(c.pool.idx), e.id, int64(head.req.ID), float64(head.promptLeft))
			}
		} else {
			for k := 0; k < e.stepPrefill; k++ {
				a := e.pending.PopFront()
				a.promptLeft = 0
				c.finishPrefill(e, a, now)
			}
		}
	}
	e.stepEnd, e.stepPfx, e.stepDec = 0, 0, 0
	e.stepPrefill, e.stepChunk = 0, 0
	c.pool.cs.requestDispatch(c.pool, now)
}

// finishPrefill moves a fully prefilled request into e's decode batch,
// unless its client gave up meanwhile. The TTFT sample is recorded
// exactly once per request, no matter how many requeues preceded it.
//
//litegpu:hotpath
func (c *colocSched) finishPrefill(e *colocEngine, a *activeReq, now float64) {
	p := c.pool
	if p.purged(e.al, a, now) {
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), e.id, int64(a.req.ID), 0)
	}
	if !a.ttftDone {
		p.stampTTFT(a, now)
	}
	e.join(a, now)
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
	c.pool.failBatch(&e.batch, &e.pending, now, drop)
	if c.pool.cs.fab != nil {
		c.pool.failXfers(id, now, drop)
	}
}

func (c *colocSched) recovered(int, float64) {
	// Nothing instance-local to restore: an idle engine (stepEnd 0)
	// picks up work at the dispatch pass that follows recovery.
}

// deliverKV and handoffLost are unreachable: colocated instances run
// both phases, so no KV cache ever crosses the fabric between them.
func (c *colocSched) deliverKV(*activeReq, float64) {
	panic("serve: KV handoff delivered to a colocated scheduler")
}

func (c *colocSched) handoffLost(int32, int, float64) bool {
	panic("serve: KV handoff lost on a colocated scheduler")
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
