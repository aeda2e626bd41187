package model

import (
	"encoding/binary"
	"fmt"

	"repro/internal/writable"
)

// Sparse model deltas.
//
// A delta is the canonical binary encoding of the difference between
// two model versions: only the keys that changed are carried, each as a
// varint-length-prefixed key followed by an op byte (set or tombstone)
// and, for sets, the packed writable encoding of the new value. Keys
// appear in strictly ascending order and every varint is minimal, so a
// given (prev, next) pair has exactly one valid delta encoding — deltas
// can be compared byte-wise just like full model encodings.
//
// The delta format is what loop-aware delta shipping (the model bytes a
// warm iteration actually moves to its persistent workers) and opt-in
// delta checkpoints charge, instead of the full model size.

// Delta op bytes. The values are part of the wire format.
const (
	deltaOpSet    = 0x00
	deltaOpDelete = 0x01
)

// EncodeDelta appends the canonical sparse encoding of the changes
// between prev and next to dst: one entry per added or changed key of
// next (op set, with the new value) and one tombstone per key of prev
// missing from next (op delete), in ascending key order.
func EncodeDelta(prev, next *Model, dst []byte) []byte {
	mergeWalk(prev, next, func(key string, pv, nv writable.Writable) {
		if nv != nil && pv != nil && writable.Equal(pv, nv) {
			return
		}
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		if nv == nil {
			dst = append(dst, deltaOpDelete)
			return
		}
		dst = append(dst, deltaOpSet)
		dst = writable.Encode(dst, nv)
	})
	return dst
}

// DeltaSize reports len(EncodeDelta(prev, next, nil)) without building
// the encoding — the byte count delta shipping charges per iteration.
func DeltaSize(prev, next *Model) int64 {
	var n int64
	mergeWalk(prev, next, func(key string, pv, nv writable.Writable) {
		switch {
		case nv == nil:
			n += int64(uvarintLen(uint64(len(key))) + len(key) + 1)
		case pv == nil || !writable.Equal(pv, nv):
			n += int64(uvarintLen(uint64(len(key))) + len(key) + 1 + writable.Size(nv))
		}
	})
	return n
}

// ApplyDeltaBytes returns a copy of prev with an encoded delta applied:
// set ops overwrite or insert, tombstones remove. It rejects truncated
// input, non-canonical varints, unknown ops and out-of-order keys, so
// round-tripping through EncodeDelta is exact:
// ApplyDeltaBytes(prev, EncodeDelta(prev, next, nil)).Equal(next).
func ApplyDeltaBytes(prev *Model, src []byte) (*Model, error) {
	out := prev.Clone()
	lastKey, first := "", true
	for len(src) > 0 {
		klen, n := binary.Uvarint(src)
		if n <= 0 || uint64(len(src)-n) < klen {
			return nil, writable.ErrTruncated
		}
		if n != uvarintLen(klen) {
			return nil, writable.ErrNonCanonical
		}
		key := string(src[n : n+int(klen)])
		if !first && key <= lastKey {
			return nil, fmt.Errorf("model: delta keys out of order (%q after %q)", key, lastKey)
		}
		lastKey, first = key, false
		src = src[n+int(klen):]
		if len(src) == 0 {
			return nil, writable.ErrTruncated
		}
		op := src[0]
		src = src[1:]
		switch op {
		case deltaOpSet:
			var v writable.Writable
			var err error
			v, src, err = writable.Decode(src)
			if err != nil {
				return nil, err
			}
			out.Set(key, v)
		case deltaOpDelete:
			out.Delete(key)
		default:
			return nil, fmt.Errorf("model: unknown delta op 0x%02x for key %q", op, key)
		}
	}
	return out, nil
}
