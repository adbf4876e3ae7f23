package classify

import (
	"fmt"

	"ctxmatch/internal/tokenize"
)

// RawNaiveBayes is the flat, serializable form of FrozenNaiveBayes: the
// compiled tables exactly as the hot path reads them, so a snapshot
// loader can alias LogPrior/Lik/OOV straight out of a contiguous
// buffer.
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

// RestoreNaiveBayes reconstructs a FrozenNaiveBayes over dict from its
// flat form, validating every table dimension the classify hot path
// indexes by so corrupted input cannot read out of range. dict must be
// the frozen dictionary the tables were compiled against — gram IDs
// below TableGrams address Lik rows directly.
func RestoreNaiveBayes(dict *tokenize.Dict, raw *RawNaiveBayes) (*FrozenNaiveBayes, error) {
	L := len(raw.Labels)
	if raw.Trained && L == 0 {
		return nil, fmt.Errorf("classify: trained naive bayes with no labels")
	}
	if len(raw.LogPrior) != L || len(raw.OOV) != L {
		return nil, fmt.Errorf("classify: naive bayes has %d labels but %d priors and %d oov entries", L, len(raw.LogPrior), len(raw.OOV))
	}
	if raw.TableGrams < 0 || raw.TableGrams > dict.Len() {
		return nil, fmt.Errorf("classify: naive bayes table covers %d grams, dictionary has %d", raw.TableGrams, dict.Len())
	}
	if int64(len(raw.Lik)) != int64(raw.TableGrams)*int64(L) {
		return nil, fmt.Errorf("classify: naive bayes likelihood table has %d entries, want %d×%d", len(raw.Lik), raw.TableGrams, L)
	}
	f := &FrozenNaiveBayes{
		dict:       dict,
		labels:     raw.Labels,
		logPrior:   raw.LogPrior,
		lik:        raw.Lik,
		oov:        raw.OOV,
		tableGrams: raw.TableGrams,
		trained:    raw.Trained,
	}
	f.initScratch()
	return f, nil
}

// RawGaussian is the flat, serializable form of FrozenGaussian.
type RawGaussian struct {
	Labels      []string
	Base        []float64
	Mean        []float64
	TwoVar      []float64
	MajorityIdx int
	Trained     bool
}

// Raw exports the compiled tables.
func (f *FrozenGaussian) Raw() *RawGaussian {
	return &RawGaussian{
		Labels:      f.labels,
		Base:        f.base,
		Mean:        f.mean,
		TwoVar:      f.twoVar,
		MajorityIdx: f.majorityIdx,
		Trained:     f.trained,
	}
}

// RestoreGaussian reconstructs a FrozenGaussian from its flat form,
// validating the per-label slice dimensions and the majority-label
// fallback index the classify hot path relies on.
func RestoreGaussian(raw *RawGaussian) (*FrozenGaussian, error) {
	L := len(raw.Labels)
	if len(raw.Base) != L || len(raw.Mean) != L || len(raw.TwoVar) != L {
		return nil, fmt.Errorf("classify: gaussian has %d labels but %d/%d/%d parameter entries", L, len(raw.Base), len(raw.Mean), len(raw.TwoVar))
	}
	if raw.Trained && (raw.MajorityIdx < 0 || raw.MajorityIdx >= L) {
		return nil, fmt.Errorf("classify: trained gaussian majority index %d outside %d labels", raw.MajorityIdx, L)
	}
	return &FrozenGaussian{
		labels:      raw.Labels,
		base:        raw.Base,
		mean:        raw.Mean,
		twoVar:      raw.TwoVar,
		majorityIdx: raw.MajorityIdx,
		trained:     raw.Trained,
	}, nil
}

// RawMajority is the flat, serializable form of FrozenMajority.
type RawMajority struct {
	Labels  []string
	BestIdx int
	Trained bool
}

// Raw exports the compiled form.
func (f *FrozenMajority) Raw() *RawMajority {
	return &RawMajority{Labels: f.labels, BestIdx: f.bestIdx, Trained: f.trained}
}

// RestoreMajority reconstructs a FrozenMajority from its flat form,
// validating the pinned label index.
func RestoreMajority(raw *RawMajority) (*FrozenMajority, error) {
	if raw.Trained && (raw.BestIdx < 0 || raw.BestIdx >= len(raw.Labels)) {
		return nil, fmt.Errorf("classify: trained majority index %d outside %d labels", raw.BestIdx, len(raw.Labels))
	}
	return &FrozenMajority{labels: raw.Labels, bestIdx: raw.BestIdx, trained: raw.Trained}, nil
}
