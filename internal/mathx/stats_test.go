package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	wantSD := math.Sqrt(2) // population stddev of 1..5
	if math.Abs(s.Stddev-wantSD) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev, wantSD)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty Summarize = %+v, want zero value", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25},
		{1.0 / 3.0, 20},
		{-0.5, 10}, // clamped
		{1.5, 40},  // clamped
		{math.NaN(), math.NaN()},
	}
	for _, tt := range tests {
		got := Percentile(xs, tt.q)
		if math.IsNaN(tt.want) {
			if !math.IsNaN(got) {
				t.Errorf("Percentile(%v) = %v, want NaN", tt.q, got)
			}
			continue
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Percentile(nil) = %v, want NaN", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, -1}); !math.IsNaN(got) {
		t.Errorf("GeoMean with negative = %v, want NaN", got)
	}
	if got := GeoMean(nil); !math.IsNaN(got) {
		t.Errorf("GeoMean(nil) = %v, want NaN", got)
	}
}

func TestBisect(t *testing.T) {
	// Root of x² - 2 in [0, 2] is √2.
	f := func(x float64) float64 { return x*x - 2 }
	x, ok := Bisect(f, 0, 2, 1e-10)
	if !ok {
		t.Fatal("Bisect failed to bracket")
	}
	if math.Abs(x-math.Sqrt2) > 1e-9 {
		t.Errorf("Bisect = %v, want %v", x, math.Sqrt2)
	}
}

func TestBisectDecreasing(t *testing.T) {
	// Decreasing function: 2 - x, root at 2.
	x, ok := Bisect(func(x float64) float64 { return 2 - x }, 0, 5, 1e-10)
	if !ok || math.Abs(x-2) > 1e-9 {
		t.Errorf("Bisect = %v ok=%v, want 2", x, ok)
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, ok := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10)
	if ok {
		t.Error("Bisect reported success without a bracketed root")
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	x, ok := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-10)
	if !ok || x != 0 {
		t.Errorf("Bisect endpoint root = %v ok=%v, want 0", x, ok)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestDivisors(t *testing.T) {
	tests := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{12, []int{1, 2, 3, 4, 6, 12}},
		{64, []int{1, 2, 4, 8, 16, 32, 64}},
		{96, []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96}},
		{0, nil},
		{-4, nil},
	}
	for _, tt := range tests {
		got := Divisors(tt.n)
		if len(got) != len(tt.want) {
			t.Errorf("Divisors(%d) = %v, want %v", tt.n, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Divisors(%d) = %v, want %v", tt.n, got, tt.want)
				break
			}
		}
	}
}

// Property: every reported divisor divides n, and the count is symmetric.
func TestDivisorsProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw) + 1
		ds := Divisors(n)
		for _, d := range ds {
			if n%d != 0 {
				return false
			}
		}
		// 1 and n always present.
		return ds[0] == 1 && ds[len(ds)-1] == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in q.
func TestPercentileMonotoneProperty(t *testing.T) {
	r := NewRNG(123)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	f := func(a, b uint8) bool {
		q1 := float64(a) / 255
		q2 := float64(b) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Percentile(xs, q1) <= Percentile(xs, q2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Summarize min ≤ p50 ≤ p999 ≤ max for any sample.
func TestSummarizeOrderProperty(t *testing.T) {
	f := func(raws []uint16) bool {
		if len(raws) == 0 {
			return true
		}
		xs := make([]float64, len(raws))
		for i, v := range raws {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
