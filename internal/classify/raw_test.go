package classify

// RawNaiveBayes is the flat form of a FrozenNaiveBayes's compiled
// tables, exactly as the hot path reads them, for DiffRaw to compare.
type RawNaiveBayes struct {
	Labels   []string
	LogPrior []float64
	// Lik is the flat [gramID·len(Labels) + labelIdx] log-likelihood
	// table covering gram IDs below TableGrams.
	Lik []float64
	// OOV is the per-label likelihood of any gram outside the table.
	OOV        []float64
	TableGrams int
	Trained    bool
}

// Raw exports the compiled tables.
func (f *FrozenNaiveBayes) Raw() *RawNaiveBayes {
	return &RawNaiveBayes{
		Labels:     f.labels,
		LogPrior:   f.logPrior,
		Lik:        f.lik,
		OOV:        f.oov,
		TableGrams: f.tableGrams,
		Trained:    f.trained,
	}
}
