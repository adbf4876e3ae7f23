package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		z    float64
		want float64
	}{
		{0, 0.5},
		{1, 0.841344746},
		{-1, 0.158655254},
		{1.96, 0.975002105},
		{-1.96, 0.024997895},
		{3, 0.998650102},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.z); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Φ(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

// TestNormalCDFAtQuantiles reads Φ back at the standard normal's
// 1%, 5%, 50%, 95%, 97.5% and 99% quantiles, given to full precision.
func TestNormalCDFAtQuantiles(t *testing.T) {
	cases := []struct{ z, p float64 }{
		{-2.3263478740408408, 0.01},
		{-1.6448536269514729, 0.05},
		{0, 0.5},
		{1.6448536269514722, 0.95},
		{1.9599639845400540, 0.975},
		{2.3263478740408408, 0.99},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.z); math.Abs(got-c.p) > 1e-9 {
			t.Errorf("Φ(%v) = %v, want %v", c.z, got, c.p)
		}
	}
}

func TestNormalCDFShiftScale(t *testing.T) {
	// Φ((x-µ)/σ) identity.
	if got, want := NormalCDF(50, 40, 10), StdNormalCDF(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormalCDF(50,40,10) = %v, want %v", got, want)
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if NormalCDF(1, 2, 0) != 0 || NormalCDF(3, 2, 0) != 1 || NormalCDF(2, 2, 0) != 0.5 {
		t.Error("zero-sigma CDF should be a step function")
	}
	if NormalCDF(1, 2, -1) != 0 {
		t.Error("negative sigma treated as degenerate")
	}
}

func TestNormalCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		pl, ph := StdNormalCDF(lo), StdNormalCDF(hi)
		return pl <= ph && pl >= 0 && ph <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMomentsAgainstDirectComputation(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", m.Mean())
	}
	if math.Abs(m.Var()-4) > 1e-12 {
		t.Errorf("Var = %v, want 4", m.Var())
	}
	if math.Abs(m.Std()-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", m.Std())
	}
}

func TestMomentsZeroValue(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Var() != 0 || m.Std() != 0 {
		t.Error("zero-value Moments should report zeros")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Var() != 0 {
		t.Errorf("one observation: Mean = %v, Var = %v; want 3, 0", m.Mean(), m.Var())
	}
}

func TestMomentsMatchesNaiveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs))
		scale := math.Max(1, wantVar)
		return math.Abs(m.Mean()-mean) < 1e-6 && math.Abs(m.Var()-wantVar)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinomialMeanStd(t *testing.T) {
	mu, sigma := BinomialMeanStd(100, 0.5)
	if mu != 50 || math.Abs(sigma-5) > 1e-12 {
		t.Errorf("Binomial(100,0.5): µ=%v σ=%v", mu, sigma)
	}
	mu, sigma = BinomialMeanStd(0, 0.3)
	if mu != 0 || sigma != 0 {
		t.Errorf("Binomial(0,0.3): µ=%v σ=%v", mu, sigma)
	}
}

func TestSignificanceAgainstNaive(t *testing.T) {
	// 90 correct out of 100 when the majority label covers 50%:
	// z = (90-50)/5 = 8 sigma, overwhelmingly significant.
	if s := SignificanceAgainstNaive(90, 100, 0.5); s < 0.999 {
		t.Errorf("significance = %v, want ≈1", s)
	}
	// Exactly at the null mean: Φ(0) = 0.5, not significant at 0.95.
	if s := SignificanceAgainstNaive(50, 100, 0.5); math.Abs(s-0.5) > 1e-9 {
		t.Errorf("at-null significance = %v, want 0.5", s)
	}
	// Worse than naive: clearly insignificant.
	if s := SignificanceAgainstNaive(10, 100, 0.5); s > 0.001 {
		t.Errorf("below-null significance = %v, want ≈0", s)
	}
	// No test data can never be significant.
	if s := SignificanceAgainstNaive(0, 0, 0.5); s != 0 {
		t.Errorf("empty test significance = %v", s)
	}
}

func TestSignificanceDegenerateNull(t *testing.T) {
	// p=1: naive is always right; classifier can at best tie → never
	// significant.
	if s := SignificanceAgainstNaive(100, 100, 1); s != 0 {
		t.Errorf("p=1 significance = %v", s)
	}
	// p=0: any correct classification beats the naive baseline.
	if s := SignificanceAgainstNaive(1, 100, 0); s != 1 {
		t.Errorf("p=0 significance = %v", s)
	}
	if s := SignificanceAgainstNaive(0, 100, 0); s != 0 {
		t.Errorf("p=0, c=0 significance = %v", s)
	}
}

func TestSignificanceMonotoneInCorrectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		n := 10 + rng.Intn(200)
		p := 0.1 + 0.8*rng.Float64()
		c1 := rng.Intn(n + 1)
		c2 := rng.Intn(n + 1)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		s1 := SignificanceAgainstNaive(c1, n, p)
		s2 := SignificanceAgainstNaive(c2, n, p)
		if s1 > s2+1e-12 {
			t.Fatalf("significance not monotone: c=%d→%v, c=%d→%v (n=%d p=%v)", c1, s1, c2, s2, n, p)
		}
	}
}

func TestFBeta(t *testing.T) {
	if f := F1(1, 1); f != 1 {
		t.Errorf("F1(1,1) = %v", f)
	}
	if f := F1(0, 1); f != 0 {
		t.Errorf("F1(0,1) = %v", f)
	}
	if f := F1(0.5, 0.5); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("F1(.5,.5) = %v", f)
	}
	// β=2 weights recall higher: with P=1, R=0.5 it is lower than with
	// P=0.5, R=1.
	a := FBeta(1, 0.5, 2)
	b := FBeta(0.5, 1, 2)
	if a >= b {
		t.Errorf("Fβ=2 should favor recall: %v vs %v", a, b)
	}
	if FMeasure100(0.5, 0.5) != 50 {
		t.Errorf("FMeasure100(.5,.5) = %v", FMeasure100(0.5, 0.5))
	}
}

func TestF1IsHarmonicMeanProperty(t *testing.T) {
	f := func(p, r float64) bool {
		p = math.Abs(math.Mod(p, 1))
		r = math.Abs(math.Mod(r, 1))
		got := F1(p, r)
		if p+r == 0 {
			return got == 0
		}
		want := 2 * p * r / (p + r)
		return math.Abs(got-want) < 1e-12 && got <= math.Max(p, r)+1e-12 && got >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
