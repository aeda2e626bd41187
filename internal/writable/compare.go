package writable

import (
	"bytes"
	"math"
)

// Equal reports whether a and b have identical encodings, that is
// whether bytes.Equal(Encode(nil, a), Encode(nil, b)) holds. For the
// kinds in this package it compares the values directly without
// encoding them: floats compare by math.Float64bits (NaNs with the same
// payload are equal, +0 and -0 are not), Text and Bytes by content, Pair
// and List element-wise, and nil equals Null{}. Values of any other type
// are compared through their encodings.
func Equal(a, b Writable) bool {
	switch x := a.(type) {
	case nil, Null:
		switch b.(type) {
		case nil, Null:
			return true
		}
	case Text:
		if y, ok := b.(Text); ok {
			return x == y
		}
	case Int32:
		if y, ok := b.(Int32); ok {
			return x == y
		}
	case Int64:
		if y, ok := b.(Int64); ok {
			return x == y
		}
	case Float64:
		if y, ok := b.(Float64); ok {
			return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
		}
	case Bytes:
		if y, ok := b.(Bytes); ok {
			return bytes.Equal(x, y)
		}
	case Vector:
		if y, ok := b.(Vector); ok {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					return false
				}
			}
			return true
		}
	case Pair:
		if y, ok := b.(Pair); ok {
			return Equal(x.First, y.First) && Equal(x.Second, y.Second)
		}
	case List:
		if y, ok := b.(List); ok {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if !Equal(x[i], y[i]) {
					return false
				}
			}
			return true
		}
	}
	// Encodings start with the kind tag, so different kinds never match.
	if kindOf(a) != kindOf(b) {
		return false
	}
	return bytes.Equal(Encode(nil, a), Encode(nil, b))
}

// Clone returns a deep copy of w whose encoding is identical to w's and
// which shares no mutable state with it. Immutable scalars (Null, Text,
// Int32, Int64, Float64) are returned as they are; Vector and Bytes are
// copied, and Pair and List are copied element by element. Clone returns
// nil for nil and yields the same values Decode(Encode(nil, w)) would:
// nil Pair fields and List elements become Null{}, and an empty Bytes
// becomes nil. Values of any other type are copied through their
// encoding.
func Clone(w Writable) Writable {
	switch x := w.(type) {
	case nil:
		return nil
	case Null, Text, Int32, Int64, Float64:
		return w
	case Bytes:
		if len(x) == 0 {
			return Bytes(nil)
		}
		out := make(Bytes, len(x))
		copy(out, x)
		return out
	case Vector:
		out := make(Vector, len(x))
		copy(out, x)
		return out
	case Pair:
		return Pair{First: cloneElem(x.First), Second: cloneElem(x.Second)}
	case List:
		out := make(List, len(x))
		for i, e := range x {
			out[i] = cloneElem(e)
		}
		return out
	}
	c, _, err := Decode(Encode(nil, w))
	if err != nil {
		// Every Writable produced by this package decodes its own
		// encoding; a failure here is a programming error.
		panic("writable: clone round-trip failed: " + err.Error())
	}
	return c
}

// cloneElem clones a Pair field or List element; nil becomes Null{}, as
// decoding the element's encoding would produce.
func cloneElem(w Writable) Writable {
	if w == nil {
		return Null{}
	}
	return Clone(w)
}

// kindOf reports the kind tag Encode writes for w.
func kindOf(w Writable) Kind {
	if w == nil {
		return KindNull
	}
	return w.Kind()
}
