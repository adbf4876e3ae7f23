package relational

import (
	"bytes"
	"testing"
)

// TestEmptyConditionsRejected: a decoded "or" with no disjuncts selects
// no row yet renders as "true", so a result carrying one would share a
// view with a TRUE edge of the same view name; the decoder rejects it,
// together with the other empty forms no matching run produces.
func TestEmptyConditionsRejected(t *testing.T) {
	for _, wire := range []string{
		`{"op":"or","conds":[]}`,
		`{"op":"or"}`,
		`{"op":"and","conds":[]}`,
		`{"op":"and","conds":null}`,
		`{"op":"in","attr":"a","values":[]}`,
		`{"op":"in","attr":"a"}`,
		`{"op":"and","conds":[{"op":"eq","attr":"a","value":{"n":1}},{"op":"or","conds":[]}]}`,
	} {
		if c, err := UnmarshalCondition([]byte(wire)); err == nil {
			t.Errorf("%s decoded as %v, want an error", wire, c)
		}
	}
}

// FuzzConditionJSON: the condition decoder never panics, and whatever
// it accepts re-encodes to bytes that decode and re-encode to
// themselves.
func FuzzConditionJSON(f *testing.F) {
	for _, seed := range []string{
		`null`,
		`{"op":"true"}`,
		`{"op":"eq","attr":"a","value":{"n":1}}`,
		`{"op":"eq","attr":"a","value":null}`,
		`{"op":"in","attr":"a","values":[{"s":"x"},{"b":true},null]}`,
		`{"op":"and","conds":[{"op":"eq","attr":"a","value":{"s":"x"}},{"op":"or","conds":[{"op":"true"},{"op":"eq","attr":"b","value":{"n":-0.5}}]}]}`,
		`{"op":"or","conds":[]}`,
		`{"op":"xor"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCondition(data)
		if err != nil {
			return
		}
		first, err := MarshalCondition(c)
		if err != nil {
			t.Fatalf("decoded %q but cannot encode it: %v", data, err)
		}
		again, err := UnmarshalCondition(first)
		if err != nil {
			t.Fatalf("cannot decode own encoding %s: %v", first, err)
		}
		second, err := MarshalCondition(again)
		if err != nil {
			t.Fatalf("cannot re-encode %s: %v", first, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", first, second)
		}
	})
}
