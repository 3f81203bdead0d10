package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrdersResults(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	got, err := RunN(context.Background(), 0, points, func(_ context.Context, idx int, p int) (int, error) {
		return p * p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) {
		t.Fatalf("len = %d, want %d", len(got), len(points))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunMatchesSequential(t *testing.T) {
	points := make([]int, 37)
	for i := range points {
		points[i] = 3 * i
	}
	fn := func(_ context.Context, idx int, p int) (string, error) {
		return fmt.Sprintf("%d:%d", idx, p), nil
	}
	seq, err := RunN(context.Background(), 1, points, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		par, err := RunN(context.Background(), workers, points, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: result %d = %q, sequential %q", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	// Points 3 and 7 fail; the lowest-indexed failure must be reported
	// regardless of worker interleaving.
	points := make([]int, 20)
	errAt := func(i int) error { return fmt.Errorf("point %d failed", i) }
	for trial := 0; trial < 20; trial++ {
		_, err := RunN(context.Background(), 8, points, func(_ context.Context, idx int, _ int) (int, error) {
			if idx == 3 || idx == 7 {
				return 0, errAt(idx)
			}
			return idx, nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != "point 3 failed" {
			t.Fatalf("trial %d: err = %q, want the lowest-indexed failure", trial, got)
		}
	}
}

func TestRunErrorCancelsRemaining(t *testing.T) {
	var ran atomic.Int64
	points := make([]int, 1000)
	_, err := RunN(context.Background(), 2, points, func(ctx context.Context, idx int, _ int) (int, error) {
		ran.Add(1)
		if idx == 0 {
			return 0, errors.New("boom")
		}
		return idx, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if n := ran.Load(); n == 1000 {
		t.Error("cancellation did not stop remaining points")
	}
}

func TestRunEmptyAndNilContext(t *testing.T) {
	got, err := RunN(nil, 4, nil, func(_ context.Context, _ int, _ struct{}) (int, error) {
		t.Fatal("fn called for empty points")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	points := make([]int, 500)
	started := make(chan struct{}, 1)
	_, err := RunN(ctx, 2, points, func(_ context.Context, idx int, _ int) (int, error) {
		select {
		case started <- struct{}{}:
			cancel()
		default:
		}
		time.Sleep(time.Millisecond)
		return idx, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunN(ctx, 0, []int{1, 2, 3}, func(_ context.Context, _ int, p int) (int, error) {
		t.Fatal("fn ran under a cancelled context")
		return p, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGridMatchesNestedLoops checks Grid against the nested loops it
// replaces: same point count, same order, and flat index i at
// coordinates whose mixed-radix value is i.
func TestGridMatchesNestedLoops(t *testing.T) {
	for _, lens := range [][]int{{}, {1}, {4}, {2, 3}, {3, 1, 2}, {2, 2, 2, 2, 2, 2, 2, 2, 2}, {2, 0, 3}} {
		var want [][]int
		var walk func(prefix []int)
		walk = func(prefix []int) {
			if len(prefix) == len(lens) {
				want = append(want, append([]int(nil), prefix...))
				return
			}
			for v := 0; v < lens[len(prefix)]; v++ {
				walk(append(prefix, v))
			}
		}
		walk(nil)
		got := Grid(lens...)
		if len(got) != len(want) {
			t.Fatalf("Grid%v: %d points, want %d", lens, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("Grid%v point %d = %v, want %v", lens, i, got[i], want[i])
			}
		}
	}
}

func TestValuesDefaultsToOneZeroPoint(t *testing.T) {
	if got := Values[string](nil); len(got) != 1 || got[0] != "" {
		t.Fatalf("Values(nil) = %q, want one zero value", got)
	}
	in := []int{3, 1}
	if got := Values(in); &got[0] != &in[0] || len(got) != 2 {
		t.Fatalf("Values(%v) = %v, want the slice itself", in, got)
	}
}
