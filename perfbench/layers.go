package main

import (
	"fmt"
	"math"
	"time"

	"litegpu"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/netsim"
	"litegpu/internal/sim"
)

// Standalone layer drives: each calls one layer's public functions in a
// loop shaped after the workload (calendar depth, KV budget, fabric
// in-flight depth, GPU and model) and reports host nanoseconds per
// operation, the median of driveBlocks timed blocks.
const driveBlocks = 5

// timeBlocks runs op driveBlocks times and returns the median of
// elapsed/ops in nanoseconds. op returns how many operations it ran.
func timeBlocks(op func() (int, error)) (float64, error) {
	var per []float64
	for i := 0; i < driveBlocks; i++ {
		start := time.Now()
		n, err := op()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// driveEngine holds a standalone event calendar at the given depth and
// times one ScheduleCall plus one Step (the pop-and-fire of the earliest
// event) per operation, the hold model of a simulation in steady state.
func driveEngine(depth int) (float64, error) {
	const ops = 200_000
	e := sim.New(1)
	rng := mathx.NewRNG(uint64(depth))
	h := func(float64, uint64) {}
	// Mean inter-event gap 1, so the calendar spans about depth time units.
	for i := 0; i < depth; i++ {
		e.ScheduleCall(rng.Exponential(1)*float64(depth), 0, h, 0)
	}
	return timeBlocks(func() (int, error) {
		for i := 0; i < ops; i++ {
			if !e.Step() {
				return 0, fmt.Errorf("calendar at depth %d ran dry", depth)
			}
			e.ScheduleCall(e.Now()+rng.Exponential(1)*float64(depth), 0, h, 0)
		}
		return ops, nil
	})
}

// driveKV churns a paged allocator at the given block budget: admit
// 256-token sequences until half the budget is held, grow each by a
// block and a half of generated tokens, then free them all. Each Alloc,
// Grow and Free counts as one operation.
func driveKV(blocks int) (float64, error) {
	const (
		rounds      = 2000
		blockTokens = 16
		prompt      = 256
		grow        = blockTokens * 3 / 2
	)
	a := kv.NewAllocator(blocks, blockTokens, false)
	ids := make([]kv.SeqID, 0, blocks)
	return timeBlocks(func() (int, error) {
		ops := 0
		for r := 0; r < rounds; r++ {
			ids = ids[:0]
			for a.InUse()+prompt/blockTokens+2 <= blocks/2 {
				id, _, _, ok := a.Alloc(prompt, 0, 0)
				if !ok {
					return 0, fmt.Errorf("kv admission failed with %d of %d blocks free", a.FreeBlocks(), blocks)
				}
				ids = append(ids, id)
				ops++
			}
			for _, id := range ids {
				for g := 0; g < grow; g++ {
					if !a.Grow(id) {
						return 0, fmt.Errorf("kv grow failed with %d of %d blocks free", a.FreeBlocks(), blocks)
					}
					ops++
				}
			}
			for _, id := range ids {
				a.Free(id)
				ops++
			}
		}
		if ops == 0 {
			return 0, fmt.Errorf("kv budget of %d blocks admits no sequence", blocks)
		}
		return ops, nil
	})
}

// driveFabric keeps depth transfers in flight through a standalone
// 8-endpoint packet-switched fabric (every start and finish reshares
// bandwidth max-min fairly) and times each transfer from start to
// delivery handling.
func driveFabric(depth int) (float64, error) {
	const (
		endpoints = 8
		transfers = 20_000
	)
	depth = max(depth, 1)
	return timeBlocks(func() (int, error) {
		eng := sim.New(1)
		ports := make([]float64, endpoints)
		for i := range ports {
			ports[i] = 100e9
		}
		f, err := netsim.New(eng, netsim.Params{Ports: ports, PathLatency: 1e-6})
		if err != nil {
			return 0, err
		}
		started, done := 0, 0
		var h sim.Handler
		start := func() {
			src := started % endpoints
			f.Start(src, (src+1+started%(endpoints-1))%endpoints, float64(1e6+started%7*1e5), 0, h, 0)
			started++
		}
		h = func(float64, uint64) {
			done++
			if started < transfers {
				start()
			}
		}
		for i := 0; i < depth && started < transfers; i++ {
			start()
		}
		eng.Run(math.Inf(1))
		if done != transfers {
			return 0, fmt.Errorf("fabric delivered %d of %d transfers", done, transfers)
		}
		return transfers, nil
	})
}

// driveInference times one step-cost evaluation, inference.Run, for the
// phase at the workload's GPU, model and tensor-parallel degree.
func driveInference(p driveParams, phase inference.Phase, batch int) (float64, error) {
	const calls = 2000
	tp := p.prefill
	if phase == inference.Decode {
		tp = p.decode
	}
	opts := litegpu.DefaultOptions()
	batch = min(batch, max(1, inference.MaxFeasibleBatch(p.gpu, p.model, phase, tp, opts)))
	return timeBlocks(func() (int, error) {
		for i := 0; i < calls; i++ {
			if _, err := inference.Run(p.gpu, p.model, phase, tp, batch, opts); err != nil {
				return 0, fmt.Errorf("inference.Run %s: %w", phase, err)
			}
		}
		return calls, nil
	})
}
