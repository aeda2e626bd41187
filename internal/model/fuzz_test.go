package model

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/writable"
)

// FuzzModelDecode exercises the model decoder with arbitrary bytes: no
// panics, and accepted inputs must round-trip canonically.
func FuzzModelDecode(f *testing.F) {
	m := New()
	m.Set("centroid", writable.Vector{1, 2, 3})
	m.Set("rank", writable.Float64(0.5))
	f.Add(m.Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0x03, 'a', 'b', 'c', 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		// The model encoding is canonical (sorted keys), so a decoded
		// model re-encodes to an equivalent model, byte-identically
		// when the input was itself canonical.
		again, err := Decode(decoded.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !decoded.Equal(again) {
			t.Fatal("round trip changed the model")
		}
		if int64(len(decoded.Encode(nil))) != decoded.Size() {
			t.Fatal("Size disagrees with encoding length")
		}
		if ascendingKeys(data) && !bytes.Equal(data, decoded.Encode(nil)) {
			t.Fatalf("canonical input %x re-encoded as %x", data, decoded.Encode(nil))
		}
	})
}

// ascendingKeys reports whether the keys of a decodable model encoding
// are strictly ascending, and so unique: such an input is canonical.
func ascendingKeys(data []byte) bool {
	var prev string
	for first := true; len(data) > 0; first = false {
		klen, n := binary.Uvarint(data)
		key := string(data[n : n+int(klen)])
		if !first && key <= prev {
			return false
		}
		prev = key
		_, data, _ = writable.Decode(data[n+int(klen):])
	}
	return true
}
