// Package tokenize provides the text features used by the matching and
// classification layers: case folding, q-grams (the paper's classifiers
// tokenize values into 3-grams, §3.2.3), word tokens, a gram dictionary
// interning tokens to dense IDs, and ID-keyed sparse frequency vectors
// with deterministic cosine and Jaccard similarity.
package tokenize

import (
	"iter"
	"strings"
	"unicode"
)

// Fold normalizes raw text for feature extraction: lower-cases it and
// collapses runs of whitespace to single spaces. Input that is already
// folded ASCII — no uppercase letters, no whitespace other than single
// interior spaces, no multi-byte runes — is returned unchanged without
// allocating, which makes repeated feature extraction over normalized
// sample data allocation-free.
func Fold(s string) string {
	if isFoldedASCII(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range strings.TrimSpace(s) {
		if unicode.IsSpace(r) {
			space = true
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// isFoldedASCII reports whether Fold(s) == s without doing the work: every
// byte is single-byte ASCII, no byte is an uppercase letter or a
// non-space whitespace character, and every space is a single separator
// between non-space characters.
func isFoldedASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 0x80:
			return false
		case 'A' <= c && c <= 'Z':
			return false
		case c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			return false
		case c == ' ':
			if i == 0 || i+1 == len(s) || s[i+1] == ' ' {
				return false
			}
		}
	}
	return true
}

// QGrams returns the q-grams of the folded string. Strings shorter than q
// yield the whole string as a single gram, so no non-empty value is
// featureless. QGrams("abcd", 3) = ["abc", "bcd"].
func QGrams(s string, q int) []string {
	s = Fold(s)
	if s == "" {
		return nil
	}
	runes := []rune(s)
	if len(runes) <= q {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+q]))
	}
	return grams
}

// Trigrams returns QGrams(s, 3), the paper's default.
func Trigrams(s string) []string { return QGrams(s, 3) }

// maxSeqQ is the largest q GramSeq supports with its fixed-size rune
// boundary ring; larger q falls back to the materializing QGrams.
const maxSeqQ = 8

// GramSeq yields the q-grams of the folded string one at a time, in the
// exact order and with the exact contents of QGrams(s, q), without
// materializing a []string. Every yielded gram is a substring of the
// folded input, so iteration performs zero allocations when s is already
// folded (see Fold) and exactly one otherwise. q must be positive;
// q > 8 falls back to QGrams internally.
func GramSeq(s string, q int) iter.Seq[string] {
	return func(yield func(string) bool) {
		s = Fold(s)
		if s == "" {
			return
		}
		if q > maxSeqQ {
			for _, g := range QGrams(s, q) {
				if !yield(g) {
					return
				}
			}
			return
		}
		// ring holds the byte offsets of the last q+1 rune boundaries;
		// a window of q runes spans ring[(n-q)%(q+1)] .. the current
		// boundary. `for i := range s` iterates rune start offsets.
		var ring [maxSeqQ + 1]int
		n := 0
		for i := range s {
			if n >= q {
				if !yield(s[ring[(n-q)%(q+1)]:i]) {
					return
				}
			}
			ring[n%(q+1)] = i
			n++
		}
		if n <= q {
			// Strings of at most q runes yield themselves whole, so no
			// non-empty value is featureless (QGrams's contract).
			yield(s)
			return
		}
		yield(s[ring[(n-q)%(q+1)]:])
	}
}

// TrigramSeq is GramSeq(s, 3), the allocation-free counterpart of
// Trigrams.
func TrigramSeq(s string) iter.Seq[string] { return GramSeq(s, 3) }

// Sparse token-frequency vectors are ID-keyed: see IDVector, built by
// VectorBuilder against a Dict and compared with CosineIDs/JaccardIDs.
// (The historical map[string]float64 Vector was removed when the
// matching pipeline moved to interned gram IDs — its map-iteration
// float summation made cosine scores nondeterministic in the last
// bits.)
