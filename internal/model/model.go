// Package model implements the model store of the PIC framework. The
// paper requires only that "the model be expressed in the form of
// key/value pairs" (§III-C): keys make model elements uniquely
// identifiable so partition functions can split a model and merge
// functions can establish correspondence between elements of partial
// models.
//
// A Model is a mutable map from string keys to writable values with a
// deterministic encoded size; the size is what the runtime charges when
// a model is updated in the DFS or distributed to tasks.
package model

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/writable"
)

// Model is a set of key/value pairs representing an iterative
// algorithm's state (centroids, ranks and edge scores, weights, the
// solution vector, image rows, ...).
//
// Keys and values sit in parallel slices in insertion order. Point
// lookups go through an open-addressing index over the keys' hashes.
// Ordered walks (Keys, Range, Encode and the two-model walks) use the
// ascending key order, which is worked out only when a walk needs it,
// by merging the ascending runs of the insertion order: a model built
// in key order (from another model's Range, from a decoded encoding or
// from sorted job output) never sorts at all.
type Model struct {
	ks   *keySet
	vals []writable.Writable // vals[i] is the value of ks.keys[i]
}

// keySet is a model's keys with their lookup index and ascending order.
// Clone shares it between the source and the copy; once shared it is
// never written again, and whichever model next changes its key set
// copies it first. Read-only use of one model, or of a model and its
// clones, from concurrent tasks is therefore race-free.
type keySet struct {
	keys []string
	// index is an open-addressing table with linear probing at a load
	// factor of at most three quarters. An entry's low bits (those the
	// slot mask covers) hold a key's position plus one, 0 marking an
	// empty slot; its high bits hold a tag cut from the key's hash, so a
	// probe compares key strings only when the tags agree.
	index []int32
	// ascending reports that keys is strictly ascending, so position
	// order is key order.
	ascending bool
	// shared is set once Clone has given the set to a second model or
	// Keys has handed out its key slice.
	shared atomic.Bool
	// order caches the key order of a set that is not ascending. It is
	// atomic so concurrent readers may compute it.
	order atomic.Pointer[keyOrder]
}

// keyOrder is the ascending order of a key set: keys[i] sits at
// position pos[i].
type keyOrder struct {
	keys []string
	pos  []int32
}

// minIndex is the smallest index table; tables grow by doubling.
const minIndex = 8

var hashSeed = maphash.MakeSeed()

func hashKey(key string) uint64 { return maphash.String(hashSeed, key) }

// tag is the part of hash h an index entry keeps above the slot mask.
func tag(h uint64, mask int) int32 { return int32(h>>33) &^ int32(mask) }

// entry packs a position and the tag of hash h for an index of the
// given mask. Positions stay below the mask because the load factor is
// below one.
func entry(h uint64, pos, mask int) int32 { return tag(h, mask) | int32(pos+1) }

// New returns an empty model.
func New() *Model {
	return &Model{ks: &keySet{ascending: true}}
}

// find returns the position of the key with hash h, or -1, and the
// index slot holding it, or the empty slot where it would go (-1 when
// the set has no index yet).
func (ks *keySet) find(key string, h uint64) (pos, slot int) {
	if len(ks.index) == 0 {
		return -1, -1
	}
	mask := len(ks.index) - 1
	t := tag(h, mask)
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := ks.index[s]
		if e == 0 {
			return -1, s
		}
		if e&^int32(mask) == t {
			if i := int(e&int32(mask)) - 1; ks.keys[i] == key {
				return i, s
			}
		}
	}
}

// rehash rebuilds the index with size slots (a power of two).
func (ks *keySet) rehash(size int) {
	index := make([]int32, size)
	mask := size - 1
	for i, k := range ks.keys {
		h := hashKey(k)
		s := int(h) & mask
		for index[s] != 0 {
			s = (s + 1) & mask
		}
		index[s] = entry(h, i, mask)
	}
	ks.index = index
}

// unlink empties an index slot, shifting later entries of its probe
// chain back so every remaining key stays reachable from its home slot.
func (ks *keySet) unlink(hole int) {
	mask := len(ks.index) - 1
	for j := (hole + 1) & mask; ks.index[j] != 0; j = (j + 1) & mask {
		home := int(hashKey(ks.keys[ks.index[j]&int32(mask)-1])) & mask
		// The entry may move back unless its home lies in (hole, j].
		if (j-home)&mask >= (j-hole)&mask {
			ks.index[hole] = ks.index[j]
			hole = j
		}
	}
	ks.index[hole] = 0
}

// sorted returns the set's ascending order, computing and caching it on
// first use.
func (ks *keySet) sorted() *keyOrder {
	if o := ks.order.Load(); o != nil {
		return o
	}
	o := mergeRuns(ks.keys)
	ks.order.Store(o)
	return o
}

// mergeRuns orders keys by a natural merge sort: a set made of a few
// sorted stretches, or sorted but for local disorder, orders in a few
// linear passes.
func mergeRuns(keys []string) *keyOrder {
	n := len(keys)
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(i)
	}
	less := func(a, b int32) bool { return keys[a] < keys[b] }
	// Insertion-sort short stretches so local disorder costs no merge
	// passes, then merge the runs that remain.
	const minRun = 32
	for lo := 0; lo < n; lo += minRun {
		hi := min(lo+minRun, n)
		for i := lo + 1; i < hi; i++ {
			p, j := pos[i], i
			for ; j > lo && less(p, pos[j-1]); j-- {
				pos[j] = pos[j-1]
			}
			pos[j] = p
		}
	}
	runs := []int{0}
	for i := 1; i < n; i++ {
		if less(pos[i], pos[i-1]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n)
	buf := make([]int32, n)
	for len(runs) > 2 {
		merged := []int{0}
		for r := 0; r+1 < len(runs); r += 2 {
			lo, mid := runs[r], runs[r+1]
			if r+2 == len(runs) { // an odd run out
				copy(buf[lo:mid], pos[lo:mid])
				merged = append(merged, mid)
				break
			}
			hi := runs[r+2]
			a, b, out := pos[lo:mid], pos[mid:hi], buf[lo:hi]
			// The part of a below b's first key moves without comparing.
			i := sort.Search(len(a), func(i int) bool { return less(b[0], a[i]) })
			k, j := copy(out, a[:i]), 0
			for i < len(a) && j < len(b) {
				if less(b[j], a[i]) {
					out[k] = b[j]
					j++
				} else {
					out[k] = a[i]
					i++
				}
				k++
			}
			k += copy(out[k:], a[i:])
			copy(out[k:], b[j:])
			merged = append(merged, hi)
		}
		runs = merged
		pos, buf = buf, pos
	}
	sorted := make([]string, n)
	for i, p := range pos {
		sorted[i] = keys[p]
	}
	return &keyOrder{keys: sorted, pos: pos}
}

// own returns m's key set, first replacing it with a private copy if it
// is shared.
func (m *Model) own() *keySet {
	ks := m.ks
	if !ks.shared.Load() {
		return ks
	}
	keys := append(make([]string, 0, len(ks.keys)+1), ks.keys...)
	m.ks = &keySet{keys: keys, index: slices.Clone(ks.index), ascending: ks.ascending}
	return m.ks
}

// Set stores v under key, replacing any previous value. A nil v is
// stored as writable.Null{}, which encodes the same.
func (m *Model) Set(key string, v writable.Writable) {
	if v == nil {
		v = writable.Null{}
	}
	h := hashKey(key)
	i, slot := m.ks.find(key, h)
	if i >= 0 {
		m.vals[i] = v
		return
	}
	// A private copy of a shared set has the same index, so slot still
	// holds unless the index must grow.
	ks := m.own()
	n := len(ks.keys)
	if 4*(n+1) > 3*len(ks.index) {
		ks.rehash(max(minIndex, 2*len(ks.index)))
		_, slot = ks.find(key, h)
	}
	ks.index[slot] = entry(h, n, len(ks.index)-1)
	ks.ascending = ks.ascending && (n == 0 || ks.keys[n-1] < key)
	ks.keys = append(ks.keys, key)
	if ks.order.Load() != nil {
		ks.order.Store(nil)
	}
	m.vals = append(m.vals, v)
}

// Get returns the value stored under key.
func (m *Model) Get(key string) (writable.Writable, bool) {
	if i, _ := m.ks.find(key, hashKey(key)); i >= 0 {
		return m.vals[i], true
	}
	return nil, false
}

// Vector returns the value under key as a writable.Vector. It returns
// false if the key is missing or holds a different kind.
func (m *Model) Vector(key string) (writable.Vector, bool) {
	v, _ := m.Get(key)
	vec, ok := v.(writable.Vector)
	return vec, ok
}

// Float returns the value under key as a float64. It returns false if
// the key is missing or holds a different kind.
func (m *Model) Float(key string) (float64, bool) {
	v, _ := m.Get(key)
	f, ok := v.(writable.Float64)
	return float64(f), ok
}

// Delete removes key from the model. Deleting a missing key is a no-op.
// The last key moves into the freed position.
func (m *Model) Delete(key string) {
	h := hashKey(key)
	if i, _ := m.ks.find(key, h); i < 0 {
		return
	}
	ks := m.own()
	i, slot := ks.find(key, h)
	ks.unlink(slot)
	last := len(ks.keys) - 1
	if i != last {
		mask := len(ks.index) - 1
		_, moved := ks.find(ks.keys[last], hashKey(ks.keys[last]))
		ks.index[moved] = ks.index[moved]&^int32(mask) | int32(i+1)
		ks.keys[i], m.vals[i] = ks.keys[last], m.vals[last]
		ks.ascending = ks.ascending && i == last-1
	}
	ks.keys[last], m.vals[last] = "", nil
	ks.keys, m.vals = ks.keys[:last], m.vals[:last]
	if ks.order.Load() != nil {
		ks.order.Store(nil)
	}
}

// Len reports the number of entries.
func (m *Model) Len() int { return len(m.vals) }

// ordered returns m's keys in ascending order and the position of each
// key's value, or nil positions when position order is key order.
func (m *Model) ordered() ([]string, []int32) {
	if m.ks.ascending {
		return m.ks.keys, nil
	}
	o := m.ks.sorted()
	return o.keys, o.pos
}

// at returns the value of the i-th key of an ordered walk.
func (m *Model) at(pos []int32, i int) writable.Writable {
	if pos == nil {
		return m.vals[i]
	}
	return m.vals[pos[i]]
}

// Keys returns the model's keys in sorted order, so iteration over a
// model is deterministic. The slice is shared with the model and with
// other callers: treat it as read-only.
func (m *Model) Keys() []string {
	ks := m.ks
	if !ks.ascending {
		return ks.sorted().keys
	}
	if !ks.shared.Load() {
		ks.shared.Store(true)
	}
	return ks.keys[:len(ks.keys):len(ks.keys)]
}

// Range calls fn for each entry in sorted key order until fn returns
// false. fn may set values but must not delete keys.
func (m *Model) Range(fn func(key string, v writable.Writable) bool) {
	keys, pos := m.ordered()
	for i, k := range keys {
		if !fn(k, m.at(pos, i)) {
			return
		}
	}
}

// Clone returns a deep copy: mutating the copy's values never affects
// the original. The copy shares the key set, its index and its order
// with m until either model's keys change.
func (m *Model) Clone() *Model {
	if !m.ks.shared.Load() {
		m.ks.shared.Store(true)
	}
	vals := make([]writable.Writable, len(m.vals))
	for i, v := range m.vals {
		vals[i] = writable.Clone(v)
	}
	return &Model{ks: m.ks, vals: vals}
}

// Size reports the encoded size of the model in bytes: for each entry, a
// length-prefixed key plus the encoded value. This is the number of
// bytes a model update moves across the network per copy.
func (m *Model) Size() int64 {
	var n int64
	for i, k := range m.ks.keys {
		n += int64(uvarintLen(uint64(len(k))) + len(k) + writable.Size(m.vals[i]))
	}
	return n
}

// Equal reports whether two models have the same keys bound to equal
// values.
func (m *Model) Equal(o *Model) bool {
	if m.Len() != o.Len() {
		return false
	}
	keys, pos := m.ordered()
	okeys, opos := o.ordered()
	for i, k := range keys {
		if k != okeys[i] || !writable.Equal(m.at(pos, i), o.at(opos, i)) {
			return false
		}
	}
	return true
}

// Encode appends a deterministic binary encoding of the model to dst:
// entries in sorted key order, each as length-prefixed key bytes
// followed by the encoded value. len(Encode(nil)) == Size().
func (m *Model) Encode(dst []byte) []byte {
	keys, pos := m.ordered()
	for i, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = writable.Encode(dst, m.at(pos, i))
	}
	return dst
}

// Decode parses a model encoded by Encode. When a key repeats, its last
// value wins.
func Decode(src []byte) (*Model, error) {
	m := New()
	for len(src) > 0 {
		klen, n := binary.Uvarint(src)
		if n <= 0 || uint64(len(src)-n) < klen {
			return nil, writable.ErrTruncated
		}
		if n != uvarintLen(klen) {
			return nil, writable.ErrNonCanonical
		}
		key := string(src[n : n+int(klen)])
		var v writable.Writable
		var err error
		v, src, err = writable.Decode(src[n+int(klen):])
		if err != nil {
			return nil, err
		}
		m.Set(key, v)
	}
	return m, nil
}

// mergeWalk visits the union of a's and b's keys in ascending order,
// passing the value each model holds under the key, or nil where it
// holds none (Set never stores nil).
func mergeWalk(a, b *Model, fn func(key string, av, bv writable.Writable)) {
	ak, ap := a.ordered()
	if a.ks == b.ks {
		for i, k := range ak {
			fn(k, a.at(ap, i), b.at(ap, i))
		}
		return
	}
	bk, bp := b.ordered()
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		switch c := strings.Compare(ak[i], bk[j]); {
		case c < 0:
			fn(ak[i], a.at(ap, i), nil)
			i++
		case c > 0:
			fn(bk[j], nil, b.at(bp, j))
			j++
		default:
			fn(ak[i], a.at(ap, i), b.at(bp, j))
			i++
			j++
		}
	}
	for ; i < len(ak); i++ {
		fn(ak[i], a.at(ap, i), nil)
	}
	for ; j < len(bk); j++ {
		fn(bk[j], nil, b.at(bp, j))
	}
}

// MaxVectorDelta returns the largest L2 distance between corresponding
// Vector entries of two models — the convergence metric the paper uses
// for K-means ("the change in the value of all the K centroids is within
// a pre-specified threshold"). Entries that are not vectors, or keys
// present in only one model, are ignored.
func MaxVectorDelta(a, b *Model) float64 {
	var worst float64
	mergeWalk(a, b, func(_ string, av, bv writable.Writable) {
		avec, ok := av.(writable.Vector)
		if !ok {
			return
		}
		bvec, ok := bv.(writable.Vector)
		if !ok || len(bvec) != len(avec) {
			return
		}
		var d2 float64
		for i := range avec {
			d := avec[i] - bvec[i]
			d2 += d * d
		}
		if d2 > worst {
			worst = d2
		}
	})
	return math.Sqrt(worst)
}

// MaxFloatDelta returns the largest absolute difference between
// corresponding Float64 entries of two models — the convergence metric
// for scalar-valued models such as PageRank ranks.
func MaxFloatDelta(a, b *Model) float64 {
	var worst float64
	mergeWalk(a, b, func(_ string, av, bv writable.Writable) {
		af, ok := av.(writable.Float64)
		if !ok {
			return
		}
		bf, ok := bv.(writable.Float64)
		if !ok {
			return
		}
		if d := math.Abs(float64(af) - float64(bf)); d > worst {
			worst = d
		}
	})
	return worst
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DiffStats summarizes how a model changed between two versions.
type DiffStats struct {
	// Added, Removed and Changed count keys by category; Unchanged is
	// the rest.
	Added, Removed, Changed, Unchanged int
	// DeltaBytes is the encoded size of a delta update: every added or
	// changed entry plus a key-only tombstone per removal.
	DeltaBytes int64
}

// Diff compares two model versions and returns the delta model (added
// and changed entries of next) together with statistics. Models whose
// entries all change every iteration (float state) produce deltas as
// large as the full model — the measurement the delta-update ablation
// relies on.
func Diff(prev, next *Model) (*Model, DiffStats) {
	delta := New()
	var stats DiffStats
	mergeWalk(prev, next, func(k string, pv, nv writable.Writable) {
		switch {
		case nv == nil:
			stats.Removed++
			stats.DeltaBytes += int64(uvarintLen(uint64(len(k))) + len(k) + 1) // tombstone
		case pv == nil:
			stats.Added++
			delta.Set(k, nv)
		case !writable.Equal(pv, nv):
			stats.Changed++
			delta.Set(k, nv)
		default:
			stats.Unchanged++
		}
	})
	stats.DeltaBytes += delta.Size()
	return delta, stats
}

// ApplyDelta returns prev with the delta's entries applied (removals are
// not represented in the delta model itself; pass removed keys
// separately if needed).
func ApplyDelta(prev, delta *Model) *Model {
	out := prev.Clone()
	delta.Range(func(k string, v writable.Writable) bool {
		out.Set(k, writable.Clone(v))
		return true
	})
	return out
}
