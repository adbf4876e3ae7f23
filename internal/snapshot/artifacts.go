package snapshot

import (
	"io"
	"io/fs"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// Options mirrors the scalar matching options a snapshot persists, so
// the loader reconstructs a handle that matches exactly like the one
// that wrote it. The enum fields carry the core package's values; the
// conversion lives in core, keeping this package free of a dependency
// cycle (core imports snapshot).
type Options struct {
	Tau            float64
	Omega          float64
	EarlyDisjuncts bool
	Inference      int
	Selection      int
	SignificanceT  float64
	TrainFrac      float64
	MaxDepth       int
	Seed           int64
	Parallelism    int
}

// Artifacts is everything one prepared-target snapshot carries: the
// target schema with its sample instance, the matching configuration,
// and the pure-data artifacts preparation compiled from them — the
// frozen gram dictionary, the column feature layer (with its candidate
// index) and the frozen per-domain classifiers, indexed by
// relational.Domain.
type Artifacts struct {
	Schema         *relational.Schema
	Options        Options
	Engine         *match.Engine
	Dict           *tokenize.Dict
	Features       *match.TargetFeatures
	HasClassifiers bool
	Classifiers    [relational.DomainBool + 1]classify.FrozenClassifier
}

// Write serializes the artifact set as one snapshot container and
// returns how many bytes it wrote. Content the format cannot carry —
// view tables, custom matcher or classifier types — fails with
// ErrUnsupported before anything is written to w.
func Write(w io.Writer, a *Artifacts) (int64, error) {
	var cw writer
	if err := encodeMeta(cw.section(secMeta), a); err != nil {
		return 0, err
	}
	if err := encodeSchema(cw.section(secSchema), a.Schema); err != nil {
		return 0, err
	}
	encodeDict(cw.section(secDict), a.Dict)
	raw, err := a.Features.ExportRaw()
	if err != nil {
		return 0, errFormatf("features: %v", err)
	}
	encodeFeatures(cw.section(secFeatures), raw)
	if raw.Index != nil {
		encodeIndex(cw.section(secIndex), raw.Index)
	}
	if a.HasClassifiers {
		if err := encodeClassifiers(cw.section(secClassifiers), a); err != nil {
			return 0, err
		}
	}
	return cw.writeTo(w)
}

// readAll slurps r into one buffer sized up front when the reader can
// say how much is coming: Len() for in-memory readers (bytes.Reader,
// strings.Reader), Stat() of a regular file for files. That avoids
// io.ReadAll's growth-doubling copies, which would otherwise dominate
// the load: for a catalog snapshot the decode itself is mostly zero-copy
// aliasing of this very buffer. Like os.ReadFile it then reads to EOF,
// growing only if the hint was short, so a file that changes size under
// the read still comes back whole; readers without a hint start small.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch x := r.(type) {
	case interface{ Len() int }:
		size = x.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := x.Stat(); err == nil && fi.Mode().IsRegular() && int64(int(fi.Size())) == fi.Size() {
			size = int(fi.Size())
		}
	}
	// One byte past the hint, so the read that meets EOF needs no growth.
	data := make([]byte, 0, max(size+1, 512))
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// Read deserializes one snapshot container from r and returns the
// restored artifact set plus the snapshot's byte size. Arbitrary input
// fails with a structured error (ErrFormat, ErrVersion, ErrChecksum,
// ErrTruncated, ErrUnsupported) — never a panic, and never an
// allocation beyond a small multiple of the input's own size. On
// little-endian hosts the restored numeric tables (posting lists,
// log-likelihoods, column vectors) alias the read buffer directly.
func Read(r io.Reader) (*Artifacts, int, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, 0, err
	}
	c, err := parseContainer(data)
	if err != nil {
		return nil, 0, err
	}
	a := &Artifacts{}
	d, err := c.open(secMeta)
	if err != nil {
		return nil, 0, err
	}
	if err := decodeMeta(d, a); err != nil {
		return nil, 0, err
	}
	if d, err = c.open(secSchema); err != nil {
		return nil, 0, err
	}
	if a.Schema, err = decodeSchema(d); err != nil {
		return nil, 0, err
	}
	if d, err = c.open(secDict); err != nil {
		return nil, 0, err
	}
	if a.Dict, err = decodeDict(d); err != nil {
		return nil, 0, err
	}
	if d, err = c.open(secFeatures); err != nil {
		return nil, 0, err
	}
	raw, err := decodeFeatures(d)
	if err != nil {
		return nil, 0, err
	}
	if c.has(secIndex) {
		if d, err = c.open(secIndex); err != nil {
			return nil, 0, err
		}
		if raw.Index, err = decodeIndex(d); err != nil {
			return nil, 0, err
		}
	}
	if a.Features, err = match.RestoreTargetFeatures(a.Schema, a.Dict, raw); err != nil {
		return nil, 0, errFormatf("features: %v", err)
	}
	if c.has(secClassifiers) {
		if d, err = c.open(secClassifiers); err != nil {
			return nil, 0, err
		}
		if err := decodeClassifiers(d, a); err != nil {
			return nil, 0, err
		}
		a.HasClassifiers = true
	}
	return a, c.size, nil
}

// Matcher type tags of the meta section.
const (
	matcherName    uint8 = 1
	matcherNGram   uint8 = 2
	matcherNumeric uint8 = 3
	matcherType    uint8 = 4
)

func encodeMeta(e *enc, a *Artifacts) error {
	o := a.Options
	e.f64(o.Tau)
	e.f64(o.Omega)
	e.boolean(o.EarlyDisjuncts)
	e.u32(uint32(o.Inference))
	e.u32(uint32(o.Selection))
	e.f64(o.SignificanceT)
	e.f64(o.TrainFrac)
	e.i64(int64(o.MaxDepth))
	e.i64(o.Seed)
	e.i64(int64(o.Parallelism))

	e.f64(a.Engine.EvidenceScale)
	// Reserved: the retired exhaustive-engine flag, written as 0 so
	// format version 1 stays byte-identical; readers reject any other
	// value.
	e.u8(0)
	e.u32(uint32(len(a.Engine.Matchers)))
	for _, m := range a.Engine.Matchers {
		switch m := m.(type) {
		case match.NameMatcher:
			e.u8(matcherName)
			e.f64(m.W)
		case match.ValueNGramMatcher:
			e.u8(matcherNGram)
			e.f64(m.W)
			e.i64(int64(m.MaxValues))
		case match.NumericMatcher:
			e.u8(matcherNumeric)
			e.f64(m.W)
			e.i64(int64(m.Bins))
		case match.TypeMatcher:
			e.u8(matcherType)
			e.f64(m.W)
		default:
			return errUnsupportedf("matcher type %T cannot be serialized", m)
		}
	}
	return nil
}

func decodeMeta(d *dec, a *Artifacts) error {
	o := &a.Options
	o.Tau = d.f64()
	o.Omega = d.f64()
	o.EarlyDisjuncts = d.boolean()
	o.Inference = int(d.u32())
	o.Selection = int(d.u32())
	o.SignificanceT = d.f64()
	o.TrainFrac = d.f64()
	o.MaxDepth = int(d.i64())
	o.Seed = d.i64()
	o.Parallelism = int(d.i64())

	eng := &match.Engine{}
	eng.EvidenceScale = d.f64()
	if flag := d.u8(); flag != 0 {
		return errUnsupportedf("engine flag byte %d: exhaustive-engine snapshots are no longer readable", flag)
	}
	nm := int(d.u32())
	for i := 0; i < nm && d.err() == nil; i++ {
		switch tag := d.u8(); tag {
		case matcherName:
			eng.Matchers = append(eng.Matchers, match.NameMatcher{W: d.f64()})
		case matcherNGram:
			eng.Matchers = append(eng.Matchers, match.ValueNGramMatcher{W: d.f64(), MaxValues: int(d.i64())})
		case matcherNumeric:
			eng.Matchers = append(eng.Matchers, match.NumericMatcher{W: d.f64(), Bins: int(d.i64())})
		case matcherType:
			eng.Matchers = append(eng.Matchers, match.TypeMatcher{W: d.f64()})
		default:
			if d.err() == nil {
				return errUnsupportedf("unknown matcher tag %d", tag)
			}
		}
	}
	if err := d.err(); err != nil {
		return err
	}
	a.Engine = eng

	// Mirror the public option validation: a snapshot restoring an
	// unusable configuration is corrupt, not merely inconvenient.
	switch {
	case o.Tau < 0 || o.Tau > 1:
		return errFormatf("tau %v outside [0, 1]", o.Tau)
	case o.Omega < 0:
		return errFormatf("omega %v negative", o.Omega)
	case o.SignificanceT < 0 || o.SignificanceT > 1:
		return errFormatf("significance threshold %v outside [0, 1]", o.SignificanceT)
	case o.TrainFrac <= 0 || o.TrainFrac >= 1:
		return errFormatf("train fraction %v outside (0, 1)", o.TrainFrac)
	case o.MaxDepth < 1:
		return errFormatf("max depth %d below 1", o.MaxDepth)
	case o.Parallelism < 1:
		return errFormatf("parallelism %d below 1", o.Parallelism)
	case o.Inference < 0 || o.Inference > 2:
		return errFormatf("unknown inference algorithm %d", o.Inference)
	case o.Selection < 0 || o.Selection > 1:
		return errFormatf("unknown selection policy %d", o.Selection)
	}
	return nil
}

// Value kind tags of the schema section's columnar row encoding.
const (
	valNull   uint8 = 0
	valString uint8 = 1
	valNumber uint8 = 2
	valBool   uint8 = 3
)

func encodeSchema(e *enc, s *relational.Schema) error {
	e.str(s.Name)
	e.u32(uint32(len(s.Tables)))
	for _, t := range s.Tables {
		if t.IsView() {
			return errUnsupportedf("table %q is a view; snapshots carry base tables only", t.Name)
		}
		e.str(t.Name)
		e.u32(uint32(len(t.Attrs)))
		for _, a := range t.Attrs {
			e.str(a.Name)
			e.u8(uint8(a.Type))
		}
		e.u32(uint32(len(t.Rows)))
		// Columnar row encoding: per attribute a kind byte per row, the
		// numeric values packed in row order, and the string values
		// packed into one offset-addressed blob.
		for j := range t.Attrs {
			// Sized exactly, so each array is one allocation; long
			// ones go out by reference.
			var nNum, nStr, size int
			for _, row := range t.Rows {
				if v := row[j]; v.IsString() {
					nStr++
					size += len(v.Str())
				} else if !v.IsNull() {
					nNum++
				}
			}
			kinds := make([]byte, len(t.Rows))
			nums := make([]float64, 0, nNum)
			soff := make([]uint32, 1, nStr+1)
			blob := make([]byte, 0, size)
			for ri, row := range t.Rows {
				v := row[j]
				switch {
				case v.IsNull():
					kinds[ri] = valNull
				case v.IsString():
					kinds[ri] = valString
					blob = append(blob, v.Str()...)
					soff = append(soff, uint32(len(blob)))
				case v.IsNumber():
					kinds[ri] = valNumber
					f, _ := v.Float()
					nums = append(nums, f)
				default:
					kinds[ri] = valBool
					f, _ := v.Float()
					nums = append(nums, f)
				}
			}
			e.bytes(kinds)
			e.f64s(nums)
			e.u32s(soff)
			e.bytes(blob)
		}
	}
	return nil
}

func decodeSchema(d *dec) (*relational.Schema, error) {
	s := &relational.Schema{Name: d.str()}
	nTables := int(d.u32())
	for ti := 0; ti < nTables && d.err() == nil; ti++ {
		t := &relational.Table{Name: d.str()}
		nAttrs := int(d.u32())
		for ai := 0; ai < nAttrs && d.err() == nil; ai++ {
			name := d.str()
			typ := d.u8()
			if d.err() == nil && typ > uint8(relational.Bool) {
				return nil, errFormatf("table %q attribute %q has unknown type %d", t.Name, name, typ)
			}
			t.Attrs = append(t.Attrs, relational.Attribute{Name: name, Type: relational.Type(typ)})
		}
		nRows := int(d.u32())
		if d.err() == nil && len(t.Attrs) == 0 && nRows > 0 {
			return nil, errFormatf("table %q has %d rows but no attributes", t.Name, nRows)
		}
		// Decode every column before allocating any tuples: the kind
		// arrays bound nRows by the payload size, so a forged row count
		// cannot trigger a large allocation.
		type column struct {
			kinds []byte
			nums  []float64
			soff  []uint32
			blob  []byte
		}
		cols := make([]column, 0, len(t.Attrs))
		for j := 0; j < len(t.Attrs); j++ {
			c := column{kinds: d.rawBytes(), nums: d.f64s(), soff: d.u32s(), blob: d.rawBytes()}
			if err := d.err(); err != nil {
				return nil, err
			}
			if len(c.kinds) != nRows {
				return nil, errFormatf("table %q column %d has %d kind bytes for %d rows", t.Name, j, len(c.kinds), nRows)
			}
			nStr, nNum := 0, 0
			for _, k := range c.kinds {
				switch k {
				case valNull:
				case valString:
					nStr++
				case valNumber, valBool:
					nNum++
				default:
					return nil, errFormatf("table %q column %d has unknown value kind %d", t.Name, j, k)
				}
			}
			if len(c.nums) != nNum {
				return nil, errFormatf("table %q column %d has %d numeric values, want %d", t.Name, j, len(c.nums), nNum)
			}
			if len(c.soff) != nStr+1 {
				return nil, errFormatf("table %q column %d has %d string offsets, want %d", t.Name, j, len(c.soff), nStr+1)
			}
			for k := 1; k < len(c.soff); k++ {
				if c.soff[k] < c.soff[k-1] {
					return nil, errFormatf("table %q column %d string offsets decrease at %d", t.Name, j, k)
				}
			}
			if c.soff[0] != 0 || int(c.soff[nStr]) != len(c.blob) {
				return nil, errFormatf("table %q column %d string offsets span [%d, %d) over a %d-byte blob", t.Name, j, c.soff[0], c.soff[nStr], len(c.blob))
			}
			cols = append(cols, c)
		}
		t.Rows = make([]relational.Tuple, nRows)
		cursorN := make([]int, len(cols))
		cursorS := make([]int, len(cols))
		for ri := 0; ri < nRows; ri++ {
			row := make(relational.Tuple, len(cols))
			for j, c := range cols {
				switch c.kinds[ri] {
				case valNull:
					row[j] = relational.Null
				case valString:
					k := cursorS[j]
					row[j] = relational.S(string(c.blob[c.soff[k]:c.soff[k+1]]))
					cursorS[j]++
				case valNumber:
					row[j] = relational.F(c.nums[cursorN[j]])
					cursorN[j]++
				case valBool:
					row[j] = relational.B(c.nums[cursorN[j]] != 0)
					cursorN[j]++
				}
			}
			t.Rows[ri] = row
		}
		if d.err() == nil {
			if s.Table(t.Name) != nil {
				return nil, errFormatf("duplicate table %q", t.Name)
			}
			s.Tables = append(s.Tables, t)
		}
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return s, nil
}

func encodeDict(e *enc, dict *tokenize.Dict) {
	n := dict.Len()
	e.u32(uint32(n))
	offsets := make([]uint32, n+1)
	var size int
	for i := 0; i < n; i++ {
		offsets[i] = uint32(size)
		size += len(dict.Gram(uint32(i)))
	}
	offsets[n] = uint32(size)
	e.u32s(offsets)
	blob := make([]byte, 0, size)
	for i := 0; i < n; i++ {
		blob = append(blob, dict.Gram(uint32(i))...)
	}
	e.bytes(blob)
}

func decodeDict(d *dec) (*tokenize.Dict, error) {
	n := int(d.u32())
	offsets := d.u32s()
	blob := d.rawBytes()
	if err := d.err(); err != nil {
		return nil, err
	}
	if len(offsets) != n+1 {
		return nil, errFormatf("dictionary has %d offsets for %d grams", len(offsets), n)
	}
	for i := 1; i <= n; i++ {
		if offsets[i] < offsets[i-1] {
			return nil, errFormatf("dictionary offsets decrease at gram %d", i)
		}
	}
	if offsets[0] != 0 || int(offsets[n]) != len(blob) {
		return nil, errFormatf("dictionary offsets span [%d, %d) over a %d-byte blob", offsets[0], offsets[n], len(blob))
	}
	dict := tokenize.NewDict()
	for i := 0; i < n; i++ {
		dict.Intern(string(blob[offsets[i]:offsets[i+1]]))
	}
	if dict.Len() != n {
		return nil, errFormatf("dictionary lists %d grams but only %d are distinct", n, dict.Len())
	}
	dict.Freeze()
	return dict, nil
}

func encodeVector(e *enc, v match.RawVector) {
	e.u32s(v.IDs)
	e.f64s(v.Counts)
	e.f64(v.Norm)
}

func decodeVector(d *dec) match.RawVector {
	return match.RawVector{IDs: d.u32s(), Counts: d.f64s(), Norm: d.f64()}
}

func encodeFeatures(e *enc, raw *match.RawTargetFeatures) {
	e.i64(int64(raw.MaxValues))
	e.u32(uint32(len(raw.StrCols)))
	for i, r := range raw.StrCols {
		e.u32(uint32(r.Table))
		e.u32(uint32(r.Attr))
		encodeVector(e, raw.NGrams[i])
	}
	e.u32(uint32(len(raw.Numbers)))
	for _, nc := range raw.Numbers {
		e.u32(uint32(nc.Ref.Table))
		e.u32(uint32(nc.Ref.Attr))
		e.f64s(nc.Values)
	}
	e.boolean(len(raw.NumRanges) > 0)
	if len(raw.NumRanges) > 0 {
		flat := make([]float64, 0, 2*len(raw.NumRanges))
		for _, r := range raw.NumRanges {
			flat = append(flat, r[0], r[1])
		}
		e.f64s(flat)
	}
	e.u32(uint32(len(raw.Names)))
	for _, nv := range raw.Names {
		e.str(nv.Name)
		encodeVector(e, nv.Vec)
	}
}

func decodeFeatures(d *dec) (*match.RawTargetFeatures, error) {
	raw := &match.RawTargetFeatures{MaxValues: int(d.i64())}
	nStr := int(d.u32())
	for i := 0; i < nStr && d.err() == nil; i++ {
		raw.StrCols = append(raw.StrCols, match.RawColumnRef{Table: int(d.u32()), Attr: int(d.u32())})
		raw.NGrams = append(raw.NGrams, decodeVector(d))
	}
	nNum := int(d.u32())
	for i := 0; i < nNum && d.err() == nil; i++ {
		raw.Numbers = append(raw.Numbers, match.RawNumericColumn{
			Ref:    match.RawColumnRef{Table: int(d.u32()), Attr: int(d.u32())},
			Values: d.f64s(),
		})
	}
	if d.boolean() {
		flat := d.f64s()
		if d.err() == nil {
			if len(flat) != 2*len(raw.Numbers) {
				return nil, errFormatf("features carry %d range bounds for %d numeric columns", len(flat), len(raw.Numbers))
			}
			raw.NumRanges = make([][2]float64, len(raw.Numbers))
			for i := range raw.NumRanges {
				raw.NumRanges[i] = [2]float64{flat[2*i], flat[2*i+1]}
			}
		}
	}
	nNames := int(d.u32())
	for i := 0; i < nNames && d.err() == nil; i++ {
		raw.Names = append(raw.Names, match.RawNameVector{Name: d.str(), Vec: decodeVector(d)})
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return raw, nil
}

func encodeIndex(e *enc, raw *tokenize.RawIndex) {
	e.u32s(raw.ListOffsets)
	e.u32s(raw.PostCols)
	e.f64s(raw.PostCounts)
	e.f64s(raw.MaxW)
}

func decodeIndex(d *dec) (*tokenize.RawIndex, error) {
	raw := &tokenize.RawIndex{
		ListOffsets: d.u32s(),
		PostCols:    d.u32s(),
		PostCounts:  d.f64s(),
		MaxW:        d.f64s(),
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return raw, nil
}

// Classifier type tags of the classifier section.
const (
	clsNone       uint8 = 0
	clsNaiveBayes uint8 = 1
	clsGaussian   uint8 = 2
	clsMajority   uint8 = 3
)

// classifierDomains is the canonical domain order of the classifier
// section, matching the order the core package trains and freezes in.
var classifierDomains = [...]relational.Domain{
	relational.DomainString, relational.DomainNumber, relational.DomainBool,
}

func encodeLabels(e *enc, labels []string) {
	e.u32(uint32(len(labels)))
	for _, l := range labels {
		e.str(l)
	}
}

func decodeLabels(d *dec) []string {
	n := int(d.u32())
	var out []string
	for i := 0; i < n && d.err() == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

func encodeClassifiers(e *enc, a *Artifacts) error {
	for _, dom := range classifierDomains {
		switch c := a.Classifiers[dom].(type) {
		case nil:
			e.u8(clsNone)
		case *classify.FrozenNaiveBayes:
			raw := c.Raw()
			e.u8(clsNaiveBayes)
			encodeLabels(e, raw.Labels)
			e.f64s(raw.LogPrior)
			e.f64s(raw.OOV)
			e.u32(uint32(raw.TableGrams))
			e.f64s(raw.Lik)
			e.boolean(raw.Trained)
		case *classify.FrozenGaussian:
			raw := c.Raw()
			e.u8(clsGaussian)
			encodeLabels(e, raw.Labels)
			e.f64s(raw.Base)
			e.f64s(raw.Mean)
			e.f64s(raw.TwoVar)
			e.i64(int64(raw.MajorityIdx))
			e.boolean(raw.Trained)
		case *classify.FrozenMajority:
			raw := c.Raw()
			e.u8(clsMajority)
			encodeLabels(e, raw.Labels)
			e.i64(int64(raw.BestIdx))
			e.boolean(raw.Trained)
		default:
			return errUnsupportedf("classifier type %T cannot be serialized", c)
		}
	}
	return nil
}

func decodeClassifiers(d *dec, a *Artifacts) error {
	for _, dom := range classifierDomains {
		tag := d.u8()
		if d.err() != nil {
			break
		}
		var (
			cls classify.FrozenClassifier
			err error
		)
		switch tag {
		case clsNone:
			continue
		case clsNaiveBayes:
			raw := &classify.RawNaiveBayes{
				Labels:     decodeLabels(d),
				LogPrior:   d.f64s(),
				OOV:        d.f64s(),
				TableGrams: int(d.u32()),
				Lik:        d.f64s(),
				Trained:    d.boolean(),
			}
			if d.err() == nil {
				cls, err = classify.RestoreNaiveBayes(a.Dict, raw)
			}
		case clsGaussian:
			raw := &classify.RawGaussian{
				Labels:      decodeLabels(d),
				Base:        d.f64s(),
				Mean:        d.f64s(),
				TwoVar:      d.f64s(),
				MajorityIdx: int(d.i64()),
				Trained:     d.boolean(),
			}
			if d.err() == nil {
				cls, err = classify.RestoreGaussian(raw)
			}
		case clsMajority:
			raw := &classify.RawMajority{
				Labels:  decodeLabels(d),
				BestIdx: int(d.i64()),
				Trained: d.boolean(),
			}
			if d.err() == nil {
				cls, err = classify.RestoreMajority(raw)
			}
		default:
			return errUnsupportedf("unknown classifier tag %d for domain %v", tag, dom)
		}
		if err != nil {
			return errFormatf("%v classifier: %v", dom, err)
		}
		if d.err() == nil {
			a.Classifiers[dom] = cls
		}
	}
	return d.err()
}
