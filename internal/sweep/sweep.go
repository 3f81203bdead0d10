// Package sweep runs embarrassingly-parallel design-space explorations
// over a goroutine worker pool while keeping results byte-for-byte
// reproducible: results come back in input order regardless of worker
// count or scheduling, and anything stochastic derives its seed from the
// point's index (via mathx.DeriveSeed), never from which worker ran it.
//
// It is the concurrency substrate under the Figure 3 studies, the
// serving-study grid, litegpu.Sweep, and the capacity planner, and Grid
// is the one enumerator of their design-space cross products.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

// RunN evaluates fn(ctx, i, points[i]) for every point over a pool of
// `workers` goroutines (workers <= 0 means GOMAXPROCS) and returns the
// results in input order.
//
// Error handling is deterministic: if any evaluations fail, RunN returns
// the error of the lowest-indexed failing point — the same error a
// sequential loop would hit first — alongside a nil result slice.
// Remaining points are cancelled via the derived context once any
// failure is observed, so fn implementations that honor ctx stop early;
// a point already claimed by a worker always runs to completion.
func RunN[P, R any](ctx context.Context, workers int, points []P, fn func(ctx context.Context, idx int, p P) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return []R{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}

	results := make([]R, len(points))
	errs := make([]error, len(points))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	// claim hands out point indices strictly in order, so the set of
	// unclaimed points is always a suffix — the invariant behind the
	// deterministic lowest-index error below.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(points) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i, ok := claim()
				if !ok {
					return
				}
				r, err := fn(ctx, i, points[i])
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	// Every claimed point ran to completion, and claims are in index
	// order; so the lowest-indexed recorded error is exactly the first
	// error a sequential loop over points would have returned.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	mu.Lock()
	done := next >= len(points)
	mu.Unlock()
	if !done {
		// Workers stopped early without any point failing: the parent
		// context was cancelled.
		return nil, context.Cause(ctx)
	}
	return results, nil
}

// Grid enumerates the cross product of axes with the given lengths in
// mixed-radix order, the last axis varying fastest: point i holds the
// per-axis coordinates of flat index i, exactly the order of nested
// loops over the axes from first (outermost) to last. A zero-length
// axis makes the grid empty. Derive anything stochastic from the flat
// index or from coordinates, never from which worker ran a point.
func Grid(lens ...int) [][]int {
	n := 1
	for _, l := range lens {
		n *= l
	}
	k := len(lens)
	flat := make([]int, n*k)
	points := make([][]int, n)
	for i := range points {
		c := flat[i*k : (i+1)*k : (i+1)*k]
		for a, rem := k-1, i; a >= 0; a-- {
			c[a] = rem % lens[a]
			rem /= lens[a]
		}
		points[i] = c
	}
	return points
}

// Values returns an axis's settings, or the single zero setting when
// none are listed: an axis left empty is one point at its zero value.
func Values[T any](vals []T) []T {
	if len(vals) == 0 {
		return make([]T, 1)
	}
	return vals
}
