// Package stats provides the statistical machinery the paper relies on:
// the normal CDF used both to convert matcher scores into confidences
// (§2.3) and to test the significance of a classifier against the naive
// baseline (§3.2.2), moment accumulation, the binomial null model, and
// the precision/recall/Fβ metrics of the experimental study (§5).
package stats

import "math"

// NormalCDF returns Φ((x-mu)/sigma), the cumulative distribution function
// of a normal with the given mean and standard deviation. A zero sigma
// degenerates to a step function at mu.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		switch {
		case x < mu:
			return 0
		case x > mu:
			return 1
		default:
			return 0.5
		}
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// StdNormalCDF returns Φ(z) for the standard normal.
func StdNormalCDF(z float64) float64 { return NormalCDF(z, 0, 1) }

// Moments accumulates count, mean and variance online (Welford's
// algorithm). The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 with no observations).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance (dividing by n).
func (m *Moments) Var() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// BinomialMeanStd returns the mean n·p and standard deviation
// sqrt(n·p·(1-p)) of a Binomial(n, p): the null model of §3.2.2 for the
// number of correct classifications produced by the naive classifier.
func BinomialMeanStd(n int, p float64) (mu, sigma float64) {
	fn := float64(n)
	return fn * p, math.Sqrt(fn * p * (1 - p))
}

// SignificanceAgainstNaive implements the §3.2.2 significance test: given
// the number of correct classifications c on ntest examples and the naive
// classifier's success probability p (frequency of the most common label
// in training), it returns Φ((c-µ)/σ) under the binomial null model. The
// view family is accepted when the result exceeds the threshold T
// (typically 0.95).
func SignificanceAgainstNaive(correct, ntest int, p float64) float64 {
	if ntest == 0 {
		return 0
	}
	mu, sigma := BinomialMeanStd(ntest, p)
	if sigma == 0 {
		// Degenerate null (p is 0 or 1): significant only if the
		// classifier strictly beats the deterministic baseline.
		if float64(correct) > mu {
			return 1
		}
		return 0
	}
	return StdNormalCDF((float64(correct) - mu) / sigma)
}

// PR holds a precision/recall pair. The paper's §5 calls recall
// "accuracy" (percentage of correct matches found).
type PR struct {
	Precision float64
	Recall    float64
}

// FBeta combines precision and recall with the standard Fβ function
// ((1+β²)·P·R)/(β²·P+R). FBeta(p, r, 1) is the F1 used throughout §5.
func FBeta(precision, recall, beta float64) float64 {
	b2 := beta * beta
	den := b2*precision + recall
	if den == 0 {
		return 0
	}
	return (1 + b2) * precision * recall / den
}

// F1 is FBeta with β = 1.
func F1(precision, recall float64) float64 { return FBeta(precision, recall, 1) }

// FMeasure100 is the §5 "FMeasure": F1 scaled to [0,100].
func FMeasure100(precision, recall float64) float64 { return 100 * F1(precision, recall) }
