package mathx

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"
)

// oracleSummarize is the sort-based summary the selection kernel
// replaced: copy, sort.Float64s, then interpolate between closest ranks.
func oracleSummarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Stddev = math.Sqrt(variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = oracleQuantile(sorted, 0.50)
	s.P90 = oracleQuantile(sorted, 0.90)
	s.P99 = oracleQuantile(sorted, 0.99)
	s.P999 = oracleQuantile(sorted, 0.999)
	return s
}

func oracleQuantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameFloat reports bit identity, treating any two NaNs as equal and
// -0 as equal to +0: sort.Float64s orders neither NaN payloads nor the
// two zeros, so the oracle does not define which one a rank holds.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b)) || (a == 0 && b == 0)
}

// Sample patterns for FuzzSummarize and BenchmarkSummarize.
const (
	patRandom = iota
	patSorted
	patReversed
	patOrganPipe
	patAllEqual
	patDuplicates
	patMedian3Killer
	patAdversary
	numPatterns
)

// sample builds an n-element sample of the given pattern from seed.
func sample(pattern, n int, seed uint64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, n)
	switch pattern {
	case patRandom:
		for i := range xs {
			xs[i] = r.LogNormal(0, 1)
		}
	case patSorted, patReversed:
		for i := range xs {
			xs[i] = float64(i)
		}
		if pattern == patReversed {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				xs[i], xs[j] = xs[j], xs[i]
			}
		}
	case patOrganPipe:
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
	case patAllEqual:
		for i := range xs {
			xs[i] = 1.5
		}
	case patDuplicates:
		for i := range xs {
			xs[i] = float64(r.Intn(4))
		}
	case patMedian3Killer:
		// Musser's median-of-3 killer sequence.
		k := n / 2
		for i := 1; i <= n; i++ {
			switch {
			case i > k:
				xs[i-1] = float64(2 * (i - k))
			case i%2 == 1:
				xs[i-1] = float64(i)
			default:
				xs[i-1] = float64(k + i - 1)
			}
		}
	case patAdversary:
		xs = adversary(n)
	}
	return xs
}

// adversary returns an n-element sample on which selecting the median
// drives every partition of selectNth to keep nearly its whole range.
// It is McIlroy's "killer adversary for quicksort": a comparison-for-
// comparison replica of selectNth runs over item ids whose values start
// as "gas" (above every fixed value) and are fixed only when two gas
// items meet, each time making the pivot candidate as small as allowed.
// Because selectNth's path depends only on comparison outcomes, the
// real kernel retraces the replica's path on the returned values.
func adversary(n int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	less := func(x, y int) bool {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x] = solid
			} else {
				val[y] = solid
			}
			solid++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return val[x] < val[y]
	}
	med3 := func(x, y, z int) int {
		if less(y, x) {
			x, y = y, x
		}
		if less(z, y) {
			y = z
			if less(y, x) {
				y = x
			}
		}
		return y
	}
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	k := int(math.Floor(0.5 * float64(n-1)))
	lo, hi := 0, n
	bad := 2 * bits.Len(uint(n))
	for hi-lo > 12 && k > 0 && bad > 0 {
		s := a[lo:hi]
		l, m, r := 0, len(s)/2, len(s)-1
		var p int
		if len(s) > 128 {
			d := len(s) / 8
			p = med3(med3(s[l], s[l+d], s[l+2*d]),
				med3(s[m-d], s[m], s[m+d]),
				med3(s[r-2*d], s[r-d], s[r]))
		} else {
			p = med3(s[l], s[m], s[r])
		}
		i, j := lo, hi-1
		for i <= j {
			for less(a[i], p) {
				i++
			}
			for less(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		size := hi - lo
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			hi = lo
		}
		if 4*(hi-lo) > 3*size {
			bad--
		}
	}
	xs := make([]float64, n)
	for id, v := range val {
		xs[id] = float64(v)
	}
	return xs
}

// FuzzSummarize checks SummarizeParts and Percentile against the
// sort-based oracle on samples of every pattern, salted with NaN, ±Inf,
// ±0 and duplicates and split into one to four parts.
func FuzzSummarize(f *testing.F) {
	for i, n := range []uint16{0, 1, 2, 3, 7, 13, 100, 129, 257, 1000, 2048, 4999} {
		for pattern := 0; pattern < numPatterns; pattern += 2 {
			f.Add(uint8(pattern+i%2), uint8(i), n, uint64(i*numPatterns+pattern), []byte{byte(i), byte(pattern)})
		}
	}
	f.Add(uint8(patRandom), uint8(3), uint16(500), uint64(9), []byte{0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, pattern, split uint8, n uint16, seed uint64, specials []byte) {
		xs := sample(int(pattern)%numPatterns, int(n)%5000, seed)
		r := NewRNG(seed ^ 0x9e3779b97f4a7c15)
		if len(xs) > 0 {
			for _, b := range specials {
				i := r.Intn(len(xs))
				switch b % 6 {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Inf(1)
				case 2:
					xs[i] = math.Inf(-1)
				case 3:
					xs[i] = math.Copysign(0, -1)
				case 4:
					xs[i] = 0
				case 5:
					xs[i] = xs[r.Intn(len(xs))]
				}
			}
		}
		cuts := []int{0, len(xs)}
		for c := int(split % 4); c > 0; c-- {
			cuts = append(cuts, r.Intn(len(xs)+1))
		}
		sort.Ints(cuts)
		var parts [][]float64
		for i := 1; i < len(cuts); i++ {
			parts = append(parts, xs[cuts[i-1]:cuts[i]])
		}
		before := append([]float64(nil), xs...)
		var buf []float64
		switch split / 4 % 3 {
		case 1:
			buf = make([]float64, len(xs)/2)
		case 2:
			buf = make([]float64, min(3, len(xs)), len(xs))
		}

		got, want := SummarizeParts(buf, parts...), oracleSummarize(xs)
		exact := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
		}
		if got.N != want.N || !exact(got.Mean, want.Mean) || !exact(got.Stddev, want.Stddev) ||
			!exact(got.Min, want.Min) || !exact(got.Max, want.Max) {
			t.Fatalf("moments: got %+v, want %+v", got, want)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"P50", got.P50, want.P50}, {"P90", got.P90, want.P90}, {"P99", got.P99, want.P99}, {"P999", got.P999, want.P999}} {
			if !sameFloat(c.got, c.want) {
				t.Fatalf("%s = %v, want %v (n=%d)", c.name, c.got, c.want, len(xs))
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("sample modified at %d: %v -> %v", i, before[i], xs[i])
			}
		}
		if len(xs) > 0 {
			q := r.Float64()
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			if got, want := Percentile(xs, q), oracleQuantile(sorted, q); !sameFloat(got, want) {
				t.Fatalf("Percentile(%v) = %v, want %v", q, got, want)
			}
		}
	})
}

var benchSummary Summary

// BenchmarkSummarize times the four-quantile summary through a reused
// scratch buffer, as metrics assembly calls it. The adversary pattern
// forces the fallback sort; its ns/sample stays within a small factor of
// random input instead of growing with n.
func BenchmarkSummarize(b *testing.B) {
	for _, pattern := range []struct {
		name string
		id   int
	}{{"random", patRandom}, {"adversary", patAdversary}} {
		for _, n := range []int{1_000, 1_000_000} {
			xs := sample(pattern.id, n, 1)
			buf := make([]float64, n)
			b.Run(fmt.Sprintf("%s/n=%d", pattern.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSummary = SummarizeParts(buf, xs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sample")
			})
		}
	}
}
