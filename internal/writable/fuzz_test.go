package writable

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// FuzzDecode exercises the decoder with arbitrary byte streams: it must
// never panic, and everything it accepts must re-encode to the bytes it
// consumed (the encoding is canonical).
func FuzzDecode(f *testing.F) {
	seeds := []Writable{
		Null{},
		Text("hello"),
		Int32(-7),
		Int64(1 << 40),
		Float64(3.14),
		Bytes{0, 1, 2},
		Vector{1.5, -2.5},
		Pair{First: Text("k"), Second: Vector{9}},
	}
	for _, w := range seeds {
		f.Add(Encode(nil, w))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		w, rest, err := Decode(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		again := Encode(nil, w)
		if !bytes.Equal(again, consumed) {
			t.Fatalf("decode(%x) re-encoded as %x", consumed, again)
		}
		if Size(w) != len(consumed) {
			t.Fatalf("Size = %d for %d consumed bytes", Size(w), len(consumed))
		}
	})
}

// FuzzEqualClone checks Equal and Clone against the byte encoding they
// stand in for. Values come from decoding the fuzz bytes (two
// consecutive values, and the first value again after one byte of the
// input is flipped) and from randomWritable. For every pair, Equal must
// agree with comparing encodings; every clone must encode like its
// original; and changing a clone's vectors, bytes and list elements must
// leave the original's encoding alone.
func FuzzEqualClone(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		w := randomWritable(rng, 3)
		f.Add(Encode(Encode(nil, w), Clone(w)), int64(i))
	}
	for _, w := range []Writable{
		Float64(math.NaN()),
		Float64(math.Copysign(0, -1)),
		Bytes{0, 1, 2},
		Vector{1.5, math.Inf(-1)},
		Pair{First: Bytes{}, Second: List{Vector{0}}},
	} {
		f.Add(Encode(Encode(nil, w), w), int64(0))
	}
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		values := []Writable{randomWritable(rand.New(rand.NewSource(seed)), 3)}
		if a, rest, err := Decode(data); err == nil {
			values = append(values, a)
			if b, _, err := Decode(rest); err == nil {
				values = append(values, b)
			}
			flipped := append([]byte(nil), data...)
			flipped[int(uint64(seed)%uint64(len(flipped)))] ^= 1 << (uint64(seed) % 8)
			if c, _, err := Decode(flipped); err == nil {
				values = append(values, c)
			}
		}
		for _, a := range values {
			for _, b := range values {
				if got, want := Equal(a, b), bytes.Equal(Encode(nil, a), Encode(nil, b)); got != want {
					t.Fatalf("Equal(%#v, %#v) = %v, encodings equal = %v", a, b, got, want)
				}
			}
			want := Encode(nil, a)
			c := Clone(a)
			if got := Encode(nil, c); !bytes.Equal(got, want) {
				t.Fatalf("Clone(%#v) encodes as %x, want %x", a, got, want)
			}
			if !Equal(a, c) {
				t.Fatalf("Clone(%#v) is not Equal to it", a)
			}
			scramble(c)
			if got := Encode(nil, a); !bytes.Equal(got, want) {
				t.Fatalf("changing a clone changed the original: %x, want %x", got, want)
			}
		}
	})
}

// scramble overwrites every mutable part of w in place: vector
// components, bytes, and list elements (after scrambling each).
func scramble(w Writable) {
	switch x := w.(type) {
	case Vector:
		for i := range x {
			x[i] = math.Float64frombits(^math.Float64bits(x[i]))
		}
	case Bytes:
		for i := range x {
			x[i] ^= 0xFF
		}
	case Pair:
		scramble(x.First)
		scramble(x.Second)
	case List:
		for i := range x {
			scramble(x[i])
			x[i] = Text("scrambled")
		}
	}
}
