package relational

import (
	"encoding/json"
	"fmt"
)

// This file defines the wire format of the Condition sum type and of
// Value, so that match results can cross process boundaries. The
// encoding is versioned at the Result envelope level (see the root
// package); within a result, conditions serialize as a tagged union:
//
//	true          {"op":"true"}
//	a = v         {"op":"eq","attr":"a","value":{"n":1}}
//	a ∈ {v1,v2}   {"op":"in","attr":"a","values":[{"s":"x"},{"s":"y"}]}
//	c1 and c2     {"op":"and","conds":[…,…]}
//	c1 or c2      {"op":"or","conds":[…,…]}
//
// and values as single-key objects keyed by domain ("s" string, "n"
// number, "b" bool) with JSON null for NULL. Both encodings are
// deterministic — field order is fixed, In value sets are kept in their
// canonical (NewIn) order — so decode∘encode is the identity on bytes:
// re-encoding a decoded condition reproduces the original exactly.

// MarshalJSON encodes the value as {"s":…}, {"n":…} or {"b":…}, with
// NULL as JSON null.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case kindNull:
		return []byte("null"), nil
	case kindString:
		return json.Marshal(struct {
			S string `json:"s"`
		}{v.str})
	case kindBool:
		return json.Marshal(struct {
			B bool `json:"b"`
		}{v.num != 0})
	default:
		return json.Marshal(struct {
			N float64 `json:"n"`
		}{v.num})
	}
}

// UnmarshalJSON decodes the Value wire format produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = Null
		return nil
	}
	var probe struct {
		S *string  `json:"s"`
		N *float64 `json:"n"`
		B *bool    `json:"b"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("relational: decoding value: %w", err)
	}
	switch {
	case probe.S != nil:
		*v = S(*probe.S)
	case probe.N != nil:
		*v = F(*probe.N)
	case probe.B != nil:
		*v = B(*probe.B)
	default:
		return fmt.Errorf("relational: value %s has none of s/n/b", data)
	}
	return nil
}

// MarshalCondition encodes a condition tree as its tagged-union wire
// form. A nil condition encodes as JSON null (the match had no
// condition at all, as opposed to the explicit constant True).
func MarshalCondition(c Condition) ([]byte, error) {
	switch c := c.(type) {
	case nil:
		return []byte("null"), nil
	case True:
		return []byte(`{"op":"true"}`), nil
	case Eq:
		return json.Marshal(struct {
			Op    string `json:"op"`
			Attr  string `json:"attr"`
			Value Value  `json:"value"`
		}{"eq", c.Attr, c.Value})
	case In:
		return json.Marshal(struct {
			Op     string  `json:"op"`
			Attr   string  `json:"attr"`
			Values []Value `json:"values"`
		}{"in", c.Attr, c.Values})
	case And:
		return marshalJunction("and", c.Conds)
	case Or:
		return marshalJunction("or", c.Conds)
	default:
		return nil, fmt.Errorf("relational: cannot encode condition type %T", c)
	}
}

func marshalJunction(op string, conds []Condition) ([]byte, error) {
	subs := make([]json.RawMessage, len(conds))
	for i, sub := range conds {
		b, err := MarshalCondition(sub)
		if err != nil {
			return nil, err
		}
		subs[i] = b
	}
	return json.Marshal(struct {
		Op    string            `json:"op"`
		Conds []json.RawMessage `json:"conds"`
	}{op, subs})
}

// UnmarshalCondition decodes the tagged-union wire form back into the
// Condition sum type. Unknown operators are an error, so a result
// produced by a future format version fails loudly instead of silently
// dropping conditions. So are an "in" with no values and an "and" or
// "or" with none: no run produces them, and an empty "or" selects no
// row yet renders as "true", the key views are shared under.
func UnmarshalCondition(data []byte) (Condition, error) {
	if string(data) == "null" {
		return nil, nil
	}
	var probe struct {
		Op     string            `json:"op"`
		Attr   string            `json:"attr"`
		Value  Value             `json:"value"`
		Values []Value           `json:"values"`
		Conds  []json.RawMessage `json:"conds"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("relational: decoding condition: %w", err)
	}
	switch probe.Op {
	case "true":
		return True{}, nil
	case "eq":
		return Eq{Attr: probe.Attr, Value: probe.Value}, nil
	case "in":
		if len(probe.Values) == 0 {
			return nil, fmt.Errorf("relational: in condition on %q has no values", probe.Attr)
		}
		// The values were written in canonical NewIn order; keep them
		// as-is so re-encoding is byte-identical.
		return In{Attr: probe.Attr, Values: probe.Values}, nil
	case "and", "or":
		if len(probe.Conds) == 0 {
			return nil, fmt.Errorf("relational: %s condition has no sub-conditions", probe.Op)
		}
		conds, err := unmarshalConds(probe.Conds)
		if err != nil {
			return nil, err
		}
		if probe.Op == "and" {
			return And{Conds: conds}, nil
		}
		return Or{Conds: conds}, nil
	default:
		return nil, fmt.Errorf("relational: unknown condition op %q", probe.Op)
	}
}

func unmarshalConds(raw []json.RawMessage) ([]Condition, error) {
	out := make([]Condition, len(raw))
	for i, r := range raw {
		c, err := UnmarshalCondition(r)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return nil, fmt.Errorf("relational: null sub-condition at index %d", i)
		}
		out[i] = c
	}
	return out, nil
}
