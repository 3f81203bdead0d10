package main

import (
	"fmt"
	"sort"
)

// summary is one measured quantity across the reps of a run: its median,
// its first and third quartiles, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func (s summary) String() string {
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  n %d", s.Median, s.Q1, s.Q3, s.N)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method Python's statistics.quantiles(xs, n=4) uses, so a
// run's spread reads the same here as in any check made with it. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		// Position (n+1)·i/4 on a 1-based scale, clamped to an interior
		// pair and interpolated (or, for tiny samples, extrapolated)
		// along it, in Python's exact integer arithmetic.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
