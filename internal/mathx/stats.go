package mathx

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	P999   float64
}

// Summarize computes summary statistics over xs. An empty sample yields a
// zero Summary. xs is not modified.
func Summarize(xs []float64) Summary { return SummarizeParts(nil, xs) }

// SummarizeParts summarizes the concatenation of parts, in order, without
// modifying any part. The percentiles are selected in buf, which should
// have capacity for the total sample; a smaller buf is replaced by a
// fresh allocation for this call. Reusing one buf across calls makes the
// summary allocation-free.
//
// Mean and Stddev sum the parts in order, so a split sample summarizes
// bit-identically to its concatenation.
func SummarizeParts(buf []float64, parts ...[]float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, xs := range parts {
		s.N += len(xs)
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
	}
	if s.N == 0 {
		return Summary{}
	}
	n := float64(s.N)
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Stddev = math.Sqrt(variance)
	}
	sel := load(buf, parts)
	s.P50 = sel.quantile(0.50)
	s.P90 = sel.quantile(0.90)
	s.P99 = sel.quantile(0.99)
	s.P999 = sel.quantile(0.999)
	return s
}

// Percentile returns the q-quantile (0 <= q <= 1, clamped) of xs using
// linear interpolation between closest ranks, or NaN for an empty sample
// or a NaN q. xs is not modified.
func Percentile(xs []float64, q float64) float64 {
	sel := load(nil, [][]float64{xs})
	return sel.quantile(q)
}

// selector answers order-statistic queries over a copy of a sample, in
// the order sort.Float64s would sort it: NaNs first, then ascending.
// Queries must come in ascending rank order; each one selects only
// within the ranks above the previous answer, so a whole ascending set
// of quantiles costs a few linear passes instead of a sort.
type selector struct {
	a    []float64 // a[:nan] are NaN; a[nan:] hold no NaN
	nan  int
	from int // every rank below from that was queried is final
}

// load copies parts into buf (growing it if needed), moving NaNs to the
// front so that selection compares with plain < only.
func load(buf []float64, parts [][]float64) selector {
	n := 0
	for _, xs := range parts {
		n += len(xs)
	}
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	a := buf[:n]
	i, nan := 0, 0
	for _, xs := range parts {
		for _, x := range xs {
			a[i] = x
			if math.IsNaN(x) {
				a[i], a[nan] = a[nan], x
				nan++
			}
			i++
		}
	}
	return selector{a: a, nan: nan}
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks floor(q·(n−1)) and ceil(q·(n−1)).
func (s *selector) quantile(q float64) float64 {
	n := len(s.a)
	switch {
	case n == 0 || math.IsNaN(q):
		return math.NaN()
	case q <= 0:
		return s.rank(0)
	case q >= 1:
		return s.rank(n - 1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.rank(lo)
	}
	frac := pos - float64(lo)
	below := s.rank(lo)
	above := s.rank(hi)
	return below*(1-frac) + above*frac
}

// rank returns the k-th smallest value (0-based). k must not be below a
// previously queried rank.
func (s *selector) rank(k int) float64 {
	if k >= s.from && k >= s.nan {
		lo := max(s.from, s.nan)
		selectNth(s.a[lo:], k-lo)
		s.from = k + 1
	}
	return s.a[k]
}

// selectNth reorders a (which holds no NaN) so that a[k] is the value a
// sort would put there, every element before it is <= a[k] and every
// element after it is >= a[k]. It is introselect: Hoare partitions
// around a deterministic median-of-three (ninther on large ranges)
// pivot until the range holding k is small, or until 2·log₂n partitions
// have each kept more than three quarters of their range, then a sort
// of what remains. Adversarial inputs thus stay O(n log n).
func selectNth(a []float64, k int) {
	if k == 0 {
		// The upper neighbour of an interpolated quantile: a minimum scan.
		m := 0
		for i := 1; i < len(a); i++ {
			if a[i] < a[m] {
				m = i
			}
		}
		a[0], a[m] = a[m], a[0]
		return
	}
	lo, hi := 0, len(a) // a[k] lies in a[lo:hi]
	bad := 2 * bits.Len(uint(len(a)))
	for hi-lo > 12 && bad > 0 {
		p := pivot(a[lo:hi])
		i, j := lo, hi-1
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo:j+1] <= p, a[i:hi] >= p, and anything between equals p.
		size := hi - lo
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
		if 4*(hi-lo) > 3*size {
			bad--
		}
	}
	slices.Sort(a[lo:hi])
}

// pivot returns a pivot value drawn from a: the median of three evenly
// spaced elements, or Tukey's ninther once a is large.
func pivot(a []float64) float64 {
	n := len(a)
	l, m, r := 0, n/2, n-1
	if n > 128 {
		d := n / 8
		return median3(median3(a[l], a[l+d], a[l+2*d]),
			median3(a[m-d], a[m], a[m+d]),
			median3(a[r-2*d], a[r-d], a[r]))
	}
	return median3(a[l], a[m], a[r])
}

// median3 returns the median of three non-NaN values.
func median3(x, y, z float64) float64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = z
		if y < x {
			y = x
		}
	}
	return y
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive inputs yield NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Bisect finds x in [lo, hi] with f(x) ≈ 0, assuming f is monotone and
// f(lo), f(hi) bracket a root. It returns the midpoint after the interval
// shrinks below tol or 200 iterations, whichever comes first. ok is false
// when the initial interval does not bracket a root.
func Bisect(f func(float64) float64, lo, hi, tol float64) (x float64, ok bool) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, true
	}
	if fhi == 0 {
		return hi, true
	}
	if (flo > 0) == (fhi > 0) {
		return 0, false
	}
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, true
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, true
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Divisors returns the positive divisors of n in ascending order.
// The tensor-parallel search uses it to enumerate legal TP degrees
// (divisors of the attention-head count).
func Divisors(n int) []int {
	if n <= 0 {
		return nil
	}
	var ds []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
			if d != n/d {
				ds = append(ds, n/d)
			}
		}
	}
	sort.Ints(ds)
	return ds
}
