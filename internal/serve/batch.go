package serve

import (
	"fmt"

	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/obs"
)

// batch is the decode side of a serving instance, whichever policy runs
// it: the sequences it generates, its in-flight step, and the paged KV
// allocator their cache lives in. The static policy's decode engines and
// the colocated engines both embed one. What a batch does to its memory
// — block growth and eviction, preemption, swaps, step retirement and
// failure reclaim — is written once, over it, in this file. A scheduler
// keeps only its policy: how a batch is refilled, how prefill is staged,
// and where a recompute victim waits (scheduler.rebuild).
type batch struct {
	instanceState
	id      int32        // pool-local instance id, for transfers and the observer
	active  []*activeReq // reused across steps
	stepEnd float64      // 0 when idle
	// al is the instance's paged KV allocator; nil with Config.KV off.
	al *kv.Allocator
}

// sizeBatches checks that cfg's model fits a prefill pass on
// prefillGPUs and decode on decodeGPUs, and returns the decode batch cap and each decode instance's KV block
// budget (0 with Config.KV off). Without paged KV the cap is what fits
// HBM at the nominal context. With it the allocator is the memory gate:
// admission is bounded by free blocks at actual sequence lengths, so
// the cap is MaxDecodeBatch alone.
func sizeBatches(cfg Config, prefillGPUs, decodeGPUs int) (batchCap, blocks int, err error) {
	maxKV := inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, decodeGPUs, cfg.Opts)
	if maxKV <= 0 {
		return 0, 0, unfit(cfg, "decode", decodeGPUs)
	}
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Prefill, prefillGPUs, cfg.Opts) < 1 {
		return 0, 0, unfit(cfg, "prefill", prefillGPUs)
	}
	if !cfg.KV.Enabled() {
		return min(cfg.MaxDecodeBatch, maxKV), 0, nil
	}
	blocks, err = kvBlocksPerInstance(cfg, decodeGPUs)
	return cfg.MaxDecodeBatch, blocks, err
}

// unfit is the error for a model that does not fit a phase on gpus
// GPUs; a colocated policy names itself.
func unfit(cfg Config, phase string, gpus int) error {
	err := fmt.Errorf("serve: %s does not fit on %d×%s for %s", cfg.Model.Name, gpus, cfg.GPU.Name, phase)
	if cfg.Scheduler.Colocated() {
		err = fmt.Errorf("%v (%s scheduler)", err, cfg.Scheduler)
	}
	return err
}

// init sets the batch's instance id and, with a KV block budget, its
// allocator.
func (b *batch) init(id int32, c kv.Config, blocks int) {
	b.id = id
	if blocks > 0 {
		b.al = kv.NewAllocator(blocks, c.BlockTokensOrDefault(), c.PrefixCache)
	}
}

// join adds a to the batch, stamping its decode admission the first
// time it is admitted (the stamp survives requeues).
//
//litegpu:hotpath
func (b *batch) join(a *activeReq, now float64) {
	if !a.admitted {
		a.admitted = true
		a.decodeAt = now
	}
	b.active = append(b.active, a)
}

// growBatch claims the block growth for the token each sequence of b
// emits this step. When the allocator runs dry, eviction takes the
// cheapest memory first. First go the reservations of pending, a
// colocated instance's admitted prompts (nil for a decode engine): they
// decoded nothing yet, so they release and requeue, uncounted. Then go
// the newest active sequences, which have the least sunk decode work. A
// sole occupant that still cannot grow is dropped: it has the whole
// allocator to itself, so it can never finish. The drop empties the
// allocator, which may unblock the head of the queue, so it marks the
// pool for another dispatch pass at this instant; without that, the
// emptied instance idled until an unrelated event.
//
//litegpu:hotpath
func (p *poolSim) growBatch(b *batch, pending *deque[*activeReq], now float64) {
	for i := 0; i < len(b.active); {
		a := b.active[i]
		if p.kvGrow(b.al, a, now) {
			i++
			continue
		}
		if pending != nil && pending.Len() > 0 {
			v := pending.PopFront()
			p.kvRelease(b.al, v, now)
			p.sched.resume(v)
			continue
		}
		last := len(b.active) - 1
		victim := b.active[last]
		b.active[last] = nil
		b.active = b.active[:last]
		if last == 0 {
			p.dropActive(b.al, victim, b.id, now)
			p.cs.requestDispatch(p, now)
			return
		}
		p.preempt(b, victim, now)
		if last == i {
			return // a itself was the newest sequence
		}
		// Retry a's growth with the freed blocks.
	}
}

// preempt evicts victim from b mid-generation and releases its blocks.
// Under Recompute its KV is discarded, and the scheduler queues it to be
// prefilled again over its whole context. Under Swap its KV rides the
// fabric to router-attached remote memory and back: one transfer of
// twice the block payload, the swap-out plus the eventual swap-in,
// delivered as an xferSwap so the sequence rejoins decode with no TTFT
// stamp. With no fabric the round-trip is free and the sequence
// requeues at once.
//
//litegpu:hotpath
func (p *poolSim) preempt(b *batch, victim *activeReq, now float64) {
	p.kvPreempt++
	tokens := kvTokens(victim)
	if p.rec != nil {
		p.rec.Request(obs.KVPreempt, now, int32(p.idx), b.id, int64(victim.req.ID), float64(tokens))
	}
	p.kvRelease(b.al, victim, now)
	switch {
	case p.cfg.KV.Policy != kv.Swap:
		p.kvRecompute += tokens
		p.sched.rebuild(victim)
	case p.cs.fab == nil:
		p.sched.resume(victim)
	default:
		p.startXfer(xferRec{kind: xferSwap, src: b.id, dst: b.id, a: victim, bytes: 2 * p.kvXferBytes(tokens)},
			p.epBase+int(b.id), 0, b.prio, obs.KVSwapOut, now)
	}
}

// retire ends a decode step of b: every member emits one token, and the
// finished ones release their blocks and recycle. A member whose client
// timed out since the step began leaves without emitting; its share of
// the step is sunk cost, like a real cancelled stream's. Survivors keep
// their batch order.
//
//litegpu:hotpath
func (p *poolSim) retire(b *batch, now float64) {
	w := 0
	for _, a := range b.active {
		if p.purged(b.al, a, now) {
			continue
		}
		if !p.emitToken(a, now) {
			b.active[w] = a
			w++
			continue
		}
		p.kvRelease(b.al, a, now)
		p.freeActive(a)
	}
	clearTail(b.active, w)
	b.active = b.active[:w]
}

// failBatch reclaims the batch of a failed instance. Its HBM died with
// it: every resident sequence, every reservation of pending (a colocated
// instance's admitted prompts; nil for a decode engine) and the shared
// prefix cache are gone, so requeued sequences re-admit from scratch.
// They go back to the head of the scheduler's queue in [pending...,
// active...] order, or under drop are abandoned.
//
//litegpu:hotpath
func (p *poolSim) failBatch(b *batch, pending *deque[*activeReq], now float64, drop bool) {
	n := 0
	if pending != nil {
		n = pending.Len()
	}
	if b.al != nil {
		for _, a := range b.active {
			a.kvSeq = -1
		}
		for i := 0; i < n; i++ {
			pending.At(i).kvSeq = -1
		}
		if used := b.al.InUse(); used != 0 {
			p.kvAccount(now, -used)
		}
		b.al.Reset()
	}
	for i := 0; i < n; i++ {
		if a := pending.At(i); !p.lost(a.req.ID, b.id, now, drop) {
			p.freeActive(a)
		}
	}
	for _, a := range b.active {
		if !p.lost(a.req.ID, b.id, now, drop) {
			p.freeActive(a)
		}
	}
	if !drop {
		for i := len(b.active) - 1; i >= 0; i-- {
			p.sched.resume(b.active[i])
		}
		for i := n - 1; i >= 0; i-- {
			p.sched.resume(pending.At(i))
		}
	}
	if n > 0 {
		pending.DiscardFront(n)
	}
	clearTail(b.active, 0)
	b.active = b.active[:0]
}

// lost accounts for request id, in flight on instance inst when it
// failed: it is recorded and counted as requeued, or under drop as
// abandoned, and then its client settles. It reports whether the caller
// must requeue it.
//
//litegpu:hotpath
func (p *poolSim) lost(id int, inst int32, now float64, drop bool) bool {
	if p.rec != nil {
		k := obs.Requeue
		if drop {
			k = obs.Drop
		}
		p.rec.Request(k, now, int32(p.idx), inst, int64(id), 0)
	}
	if drop {
		p.m.DroppedOnFailure++
		p.clientSettle(id)
		return false
	}
	p.m.Requeued++
	return true
}

// failXfers reclaims the in-flight transfers touching failed instance
// id. Under drop each is abandoned. Under requeue a swap round-trip's
// sequence needs only a live instance to swap back into, because its
// swapped-out copy survives in remote memory. A KV or recompute handoff
// belongs to the static policy, which decides its fate
// (scheduler.handoffLost).
//
//litegpu:hotpath
func (p *poolSim) failXfers(id int, now float64, drop bool) {
	live := p.liveXfers
	w := 0
	for _, idx := range live {
		rec := &p.xfers[idx]
		if int(rec.src) != id && int(rec.dst) != id {
			live[w] = idx
			w++
			continue
		}
		p.cs.fab.Cancel(rec.tid)
		switch {
		case drop:
			p.m.DroppedOnFailure++
			p.clientSettle(rec.a.req.ID)
			p.freeActive(rec.a)
		case rec.kind == xferSwap && rec.src == rec.dst:
			p.m.Requeued++
			p.sched.resume(rec.a)
		default:
			p.m.Requeued++
			if p.sched.handoffLost(idx, id, now) {
				live[w] = idx
				w++
				continue
			}
		}
		p.freeXfer(idx)
	}
	p.liveXfers = live[:w]
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
