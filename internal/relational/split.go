package relational

import "math/rand"

// SplitRows partitions the row indices of an n-row table into mutually
// exclusive training and testing subsets (the inputs of
// ClusteredViewGen, Figure 6). trainFrac is the fraction of rows that go
// to training; the split is a uniform random permutation driven by rng
// so experiments can average over many partitions (the paper averages
// 8–200 of them). Both subsets stay non-empty for n > 1. Table.Restrict
// materializes either half; callers keeping per-row work on the unsplit
// table index it through the returned rows.
func SplitRows(n int, trainFrac float64, rng *rand.Rand) (train, test []int) {
	perm := rng.Perm(n)
	cut := int(float64(n) * trainFrac)
	if cut < 1 && n > 1 {
		cut = 1
	}
	if cut >= n && n > 1 {
		cut = n - 1
	}
	return perm[:cut], perm[cut:]
}
