package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		q          float64
		v          float64
		beyond     int
		wantTooFew bool
	}{
		{n: 200, q: 0.95, v: 190, beyond: 10},
		{n: 199, q: 0.95, v: 190, beyond: 9, wantTooFew: true},
		{n: 100, q: 0.90, v: 90, beyond: 10},
		{n: 99, q: 0.90, v: 90, beyond: 9, wantTooFew: true},
		{n: 20, q: 0.50, v: 10, beyond: 10},
		{n: 19, q: 0.50, v: 10, beyond: 9, wantTooFew: true},
		{n: 1, q: 0.99, v: 1, beyond: 0, wantTooFew: true},
	} {
		v, beyond := quantile(seq(c.n), c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(n=%d, q=%v) = %v, %d beyond; want %v, %d", c.n, c.q, v, beyond, c.v, c.beyond)
		}
		pv, err := percentile("m", seq(c.n), c.q)
		if (err != nil) != c.wantTooFew {
			t.Errorf("percentile(n=%d, q=%v) error = %v, want too-few %v", c.n, c.q, err, c.wantTooFew)
		}
		if pv != c.v {
			t.Errorf("percentile(n=%d, q=%v) = %v, want %v", c.n, c.q, pv, c.v)
		}
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %v, want NaN", v)
	}
}

func TestQuantileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(200)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := quantile(xs, 0.95); !math.IsInf(v, 1) {
		t.Errorf("p95 with 11 failed of 200 = %v, want +Inf", v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
