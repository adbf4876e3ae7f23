package tokenize

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFold(t *testing.T) {
	cases := map[string]string{
		"Hello World":   "hello world",
		"  A\t\nB  ":    "a b",
		"":              "",
		"   ":           "",
		"MiXeD CaSe":    "mixed case",
		"tabs\t\ttabs":  "tabs tabs",
		"ünïcode ROCKS": "ünïcode rocks",
	}
	for in, want := range cases {
		if got := Fold(in); got != want {
			t.Errorf("Fold(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestQGrams(t *testing.T) {
	if got := QGrams("abcd", 3); !reflect.DeepEqual(got, []string{"abc", "bcd"}) {
		t.Errorf("QGrams(abcd,3) = %v", got)
	}
	if got := QGrams("ab", 3); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Errorf("short string should yield itself: %v", got)
	}
	if got := QGrams("", 3); got != nil {
		t.Errorf("empty string should yield nil: %v", got)
	}
	if got := QGrams("ABC", 3); !reflect.DeepEqual(got, []string{"abc"}) {
		t.Errorf("QGrams should fold case: %v", got)
	}
	if got := Trigrams("abcd"); len(got) != 2 {
		t.Errorf("Trigrams = %v", got)
	}
}

func TestQGramsCountProperty(t *testing.T) {
	f := func(s string, qRaw uint8) bool {
		q := int(qRaw%5) + 1
		grams := QGrams(s, q)
		folded := []rune(Fold(s))
		switch {
		case len(folded) == 0:
			return grams == nil
		case len(folded) <= q:
			return len(grams) == 1
		default:
			return len(grams) == len(folded)-q+1
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosineIDsBasics(t *testing.T) {
	d := NewDict()
	vec := func(tokens ...string) *IDVector {
		b := NewVectorBuilder()
		for _, tok := range tokens {
			b.AddGram(d, tok)
		}
		return b.Build()
	}
	a := vec("x", "y")
	if got := CosineIDs(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-cosine = %v, want 1", got)
	}
	if got := CosineIDs(a, vec("z")); got != 0 {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineIDs(a, vec()); got != 0 {
		t.Errorf("empty cosine = %v, want 0", got)
	}
	// Cosine is symmetric even with the small-vector swap optimization.
	c := vec("x", "x", "y", "w")
	if l, r := CosineIDs(a, c), CosineIDs(c, a); math.Abs(l-r) > 1e-12 {
		t.Errorf("cosine asymmetric: %v vs %v", l, r)
	}
}

func TestCosineIDsBoundsProperty(t *testing.T) {
	f := func(xs, ys []string) bool {
		d := NewDict()
		ba, bb := NewVectorBuilder(), NewVectorBuilder()
		for _, x := range xs {
			ba.AddGram(d, x)
		}
		for _, y := range ys {
			bb.AddGram(d, y)
		}
		c := CosineIDs(ba.Build(), bb.Build())
		return c >= 0 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJaccardIDsBasics(t *testing.T) {
	d := NewDict()
	vec := func(tokens ...string) *IDVector {
		b := NewVectorBuilder()
		for _, tok := range tokens {
			b.AddGram(d, tok)
		}
		return b.Build()
	}
	a := vec("x", "y")
	if got := JaccardIDs(a, vec("y", "z")); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := JaccardIDs(a, a); got != 1 {
		t.Errorf("self-Jaccard = %v", got)
	}
	if got := JaccardIDs(vec(), vec()); got != 0 {
		t.Errorf("empty Jaccard = %v", got)
	}
}

// TestFoldUnicodeFallback exercises the slow path that any non-ASCII or
// unnormalized input must take: case folding beyond ASCII, Unicode
// whitespace classes collapsing to single separators, and multi-byte
// runes surviving untouched.
func TestFoldUnicodeFallback(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"latin-1 uppercase", "Élan VITAL", "élan vital"},
		{"turkish dotted I", "İstanbul", "istanbul"},
		{"greek no final sigma", "ΣΊΣΥΦΟΣ", "σίσυφοσ"},
		{"cyrillic", "МОСКВА тепло", "москва тепло"},
		{"cjk passthrough", "東京 タワー", "東京 タワー"},
		{"nbsp collapses", "a b", "a b"},
		{"ideographic space", "a　　b", "a b"},
		{"line separator", "one two", "one two"},
		{"mixed whitespace run", "a \t\r\n b", "a b"},
		{"leading and trailing unicode space", "  x ", "x"},
		{"only whitespace", " \t   ", ""},
		{"combining accent kept", "étude", "étude"},
		{"multibyte uppercase at end", "fiancÉ", "fiancé"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Fold(tc.in); got != tc.want {
				t.Errorf("Fold(%q) = %q, want %q", tc.in, got, tc.want)
			}
			// Fold must be idempotent: the output is already folded.
			if got := Fold(tc.want); got != tc.want {
				t.Errorf("Fold not idempotent on %q: got %q", tc.want, got)
			}
		})
	}
}

// TestIsFoldedASCIIRejectsUnicode: every non-ASCII byte must force the
// slow path, even when the rune is already lowercase — multi-byte runes
// cannot be certified byte-wise.
func TestIsFoldedASCIIRejectsUnicode(t *testing.T) {
	for _, s := range []string{"café", "naïve", "東京", "a b", "śćio"} {
		if isFoldedASCII(s) {
			t.Errorf("isFoldedASCII(%q) = true, want false", s)
		}
	}
	for _, s := range []string{"", "abc", "a b", "isbn 0-321"} {
		if !isFoldedASCII(s) {
			t.Errorf("isFoldedASCII(%q) = false, want true", s)
		}
	}
}
