package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/writable"
)

// The oracle below is a plain Go map with sort.Strings for ordered
// walks. It shares no code with the model layout: every read of a Model
// in a random operation sequence is checked against it.

type refModel map[string]writable.Writable

func (r refModel) clone() refModel {
	c := make(refModel, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

func (r refModel) keys() []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func refAppendKey(dst []byte, k string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	return append(dst, k...)
}

func (r refModel) encode() []byte {
	var out []byte
	for _, k := range r.keys() {
		out = writable.Encode(refAppendKey(out, k), r[k])
	}
	return out
}

// refDelta is the expected EncodeDelta output together with the
// expected Diff statistics.
func refDelta(prev, next refModel) ([]byte, DiffStats) {
	union := prev.clone()
	for k, v := range next {
		union[k] = v
	}
	var out []byte
	var st DiffStats
	for _, k := range union.keys() {
		pv, inPrev := prev[k]
		nv, inNext := next[k]
		switch {
		case !inNext:
			st.Removed++
			st.DeltaBytes += int64(len(refAppendKey(nil, k)) + 1)
			out = append(refAppendKey(out, k), deltaOpDelete)
		case !inPrev || !writable.Equal(pv, nv):
			if inPrev {
				st.Changed++
			} else {
				st.Added++
			}
			st.DeltaBytes += int64(len(writable.Encode(refAppendKey(nil, k), nv)))
			out = writable.Encode(append(refAppendKey(out, k), deltaOpSet), nv)
		default:
			st.Unchanged++
		}
	}
	return out, st
}

func refMaxFloat(a, b refModel) float64 {
	var worst float64
	for k, av := range a {
		af, ok1 := av.(writable.Float64)
		bf, ok2 := b[k].(writable.Float64)
		if ok1 && ok2 && math.Abs(float64(af-bf)) > worst {
			worst = math.Abs(float64(af - bf))
		}
	}
	return worst
}

func refMaxVector(a, b refModel) float64 {
	var worst float64
	for k, av := range a {
		avec, ok1 := av.(writable.Vector)
		bvec, ok2 := b[k].(writable.Vector)
		if !ok1 || !ok2 || len(avec) != len(bvec) {
			continue
		}
		var d2 float64
		for i := range avec {
			d2 += (avec[i] - bvec[i]) * (avec[i] - bvec[i])
		}
		worst = math.Max(worst, math.Sqrt(d2))
	}
	return worst
}

// opStream feeds an operation sequence one byte at a time, yielding
// zeros once exhausted.
type opStream struct{ data []byte }

func (s *opStream) more() bool { return len(s.data) > 0 }

func (s *opStream) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// key draws from a small key space so overwrites, deletes of present
// keys and shared prefixes ("k1" < "k10" < "k2") are common, with an
// occasional wider draw that grows the index.
func (s *opStream) key() string {
	b := s.byte()
	switch {
	case b == 0xFF:
		return ""
	case b >= 0xC0:
		return fmt.Sprintf("wide/%d", int(s.byte())*3+int(b&3))
	}
	return fmt.Sprintf("k%d", b%48)
}

func (s *opStream) value() writable.Writable {
	b := s.byte()
	x := float64(int8(s.byte())) / 4
	switch b % 4 {
	case 0:
		return writable.Float64(x)
	case 1:
		v := make(writable.Vector, 1+int(b>>2)%3)
		for i := range v {
			v[i] = x + float64(i)
		}
		return v
	case 2:
		return writable.Int64(b)
	}
	return writable.Text(fmt.Sprint(x))
}

// oracleRun applies an operation sequence to two model slots and their
// references, checking every read against the reference.
func oracleRun(t *testing.T, data []byte) {
	t.Helper()
	ms := [2]*Model{New(), New()}
	rs := [2]refModel{{}, {}}
	s := &opStream{data: data}
	for step := 0; s.more(); step++ {
		op := s.byte()
		x := int(op>>7) & 1 // slot the op acts on
		m, r := ms[x], rs[x]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (op %d on slot %d): %s", step, op%16, x, fmt.Sprintf(format, args...))
		}
		switch op % 16 {
		case 0, 1, 2, 3:
			k, v := s.key(), s.value()
			m.Set(k, v)
			r[k] = v
		case 4, 5:
			k := s.key()
			m.Delete(k)
			delete(r, k)
		case 6:
			k := s.key()
			v, ok := m.Get(k)
			rv, rok := r[k]
			if ok != rok || (ok && !writable.Equal(v, rv)) {
				fail("Get(%q) = %v, %v; want %v, %v", k, v, ok, rv, rok)
			}
			f, fok := m.Float(k)
			rf, rfok := rv.(writable.Float64)
			if fok != rfok || f != float64(rf) {
				fail("Float(%q) = %v, %v; want %v, %v", k, f, fok, rf, rfok)
			}
			vec, vok := m.Vector(k)
			rvec, rvok := rv.(writable.Vector)
			if vok != rvok || !writable.Equal(vec, rvec) {
				fail("Vector(%q) = %v, %v; want %v, %v", k, vec, vok, rvec, rvok)
			}
		case 7:
			if m.Len() != len(r) {
				fail("Len = %d, want %d", m.Len(), len(r))
			}
			if got, want := m.Keys(), r.keys(); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
				fail("Keys = %q, want %q", got, want)
			}
		case 8:
			stop := int(s.byte()) % (len(r) + 2)
			want := r.keys()
			var seen []string
			m.Range(func(k string, v writable.Writable) bool {
				if !writable.Equal(v, r[k]) {
					fail("Range value of %q = %v, want %v", k, v, r[k])
				}
				seen = append(seen, k)
				return len(seen) < stop
			})
			want = want[:min(len(want), max(stop, 1))]
			if fmt.Sprint(seen) != fmt.Sprint(want) || len(seen) != len(want) {
				fail("Range(stop %d) visited %q, want %q", stop, seen, want)
			}
		case 9:
			enc := m.Encode(nil)
			if want := r.encode(); !bytes.Equal(enc, want) {
				fail("Encode = %x, want %x", enc, want)
			}
			if m.Size() != int64(len(enc)) {
				fail("Size = %d, want %d", m.Size(), len(enc))
			}
		case 10:
			// Decode an encoding with repeated keys appended: the last
			// value of each key wins.
			enc := r.encode()
			want := r.clone()
			for n := int(s.byte()) % 4; n > 0; n-- {
				k, v := s.key(), s.value()
				enc = writable.Encode(refAppendKey(enc, k), v)
				want[k] = v
			}
			got, err := Decode(enc)
			if err != nil {
				fail("Decode: %v", err)
			}
			if !bytes.Equal(got.Encode(nil), want.encode()) {
				fail("Decode with duplicates = %x, want %x", got.Encode(nil), want.encode())
			}
			ms[x], rs[x] = got, want
		case 11:
			// Clone into the other slot, then change the clone's key
			// set: the source must not see it.
			c := m.Clone()
			before := r.encode()
			rc := r.clone()
			k, v, dk := s.key(), s.value(), s.key()
			c.Set(k, v)
			rc[k] = v
			c.Delete(dk)
			delete(rc, dk)
			if got := m.Encode(nil); !bytes.Equal(got, before) {
				fail("clone mutation changed source: %x, want %x", got, before)
			}
			// The clone holds deep copies: bumping a source vector in
			// place leaves the clone's value as it was.
			kk := s.key()
			if vec, ok := m.Vector(kk); ok {
				if _, inClone := rc[kk]; inClone {
					rc[kk] = append(writable.Vector(nil), vec...)
				}
				vec[0]++
				r[kk] = vec
			}
			ms[1-x], rs[1-x] = c, rc
		case 12:
			a, b, ra, rb := ms[x], ms[1-x], rs[x], rs[1-x]
			delta, st := Diff(a, b)
			wantDelta, wantSt := refDelta(ra, rb)
			if st != wantSt {
				fail("Diff stats = %+v, want %+v", st, wantSt)
			}
			if got := EncodeDelta(a, b, nil); !bytes.Equal(got, wantDelta) {
				fail("EncodeDelta = %x, want %x", got, wantDelta)
			}
			if DeltaSize(a, b) != int64(len(wantDelta)) {
				fail("DeltaSize = %d, want %d", DeltaSize(a, b), len(wantDelta))
			}
			if got := delta.Len(); got != wantSt.Added+wantSt.Changed {
				fail("Diff delta has %d keys, want %d", got, wantSt.Added+wantSt.Changed)
			}
			applied, err := ApplyDeltaBytes(a, wantDelta)
			if err != nil {
				fail("ApplyDeltaBytes: %v", err)
			}
			if !bytes.Equal(applied.Encode(nil), rb.encode()) {
				fail("ApplyDeltaBytes result = %x, want %x", applied.Encode(nil), rb.encode())
			}
			if got, want := MaxFloatDelta(a, b), refMaxFloat(ra, rb); got != want {
				fail("MaxFloatDelta = %v, want %v", got, want)
			}
			if got, want := MaxVectorDelta(a, b), refMaxVector(ra, rb); math.Abs(got-want) > 1e-12*max(1, want) {
				fail("MaxVectorDelta = %v, want %v", got, want)
			}
			if a.Equal(b) != bytes.Equal(ra.encode(), rb.encode()) {
				fail("Equal = %v disagrees with the reference", a.Equal(b))
			}
		case 13:
			ms[0], ms[1], rs[0], rs[1] = ms[1], ms[0], rs[1], rs[0]
		case 14:
			// Bulk insert in descending order: a fresh run per key.
			n := int(s.byte()) % 32
			base := int(s.byte())
			for i := n; i > 0; i-- {
				k := fmt.Sprintf("bulk/%03d", base+i)
				m.Set(k, writable.Float64(i))
				r[k] = writable.Float64(i)
			}
		case 15:
			ms[x], rs[x] = New(), refModel{}
		}
	}
	for x := range ms {
		if got, want := ms[x].Encode(nil), rs[x].encode(); !bytes.Equal(got, want) {
			t.Fatalf("final slot %d Encode = %x, want %x", x, got, want)
		}
	}
}

func TestModelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runs := 400
	if testing.Short() {
		runs = 60
	}
	for i := 0; i < runs; i++ {
		data := make([]byte, 200+rng.Intn(1200))
		rng.Read(data)
		oracleRun(t, data)
	}
}

func FuzzModelOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 5, 6, 7, 9, 12, 11, 3, 4, 12, 7, 8, 2})
	f.Add([]byte{14, 20, 40, 14, 10, 30, 7, 9, 11, 1, 2, 12, 4, 1, 7})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(oracleRun)
}

// TestConcurrentReadsOfUnorderedModel reads one model from many
// goroutines at once while its key order has not been computed yet and
// its keys sit in several unsorted runs. Run it under -race.
func TestConcurrentReadsOfUnorderedModel(t *testing.T) {
	build := func() (*Model, refModel) {
		m, r := New(), refModel{}
		for run := 0; run < 4; run++ {
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("r%d/%04d", 3-run, i)
				v := writable.Vector{float64(run), float64(i)}
				m.Set(k, v)
				r[k] = v
			}
		}
		m.Delete("r2/0007")
		delete(r, "r2/0007")
		return m, r
	}
	m, r := build()
	want := r.encode()
	wantKeys := r.keys()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, ok := m.Get(wantKeys[g*37]); !ok {
				errs <- "Get missed a key"
			}
			if f, ok := m.Float(wantKeys[g]); ok || f != 0 {
				errs <- "Float read a vector"
			}
			var n int
			m.Range(func(k string, _ writable.Writable) bool {
				if k != wantKeys[n] {
					errs <- fmt.Sprintf("Range key %d = %q, want %q", n, k, wantKeys[n])
					return false
				}
				n++
				return true
			})
			if keys := m.Keys(); fmt.Sprint(keys) != fmt.Sprint(wantKeys) {
				errs <- "Keys out of order"
			}
			c := m.Clone()
			c.Set(fmt.Sprintf("clone%d", g), writable.Int64(g))
			c.Delete(wantKeys[g])
			if !bytes.Equal(m.Encode(nil), want) {
				errs <- "Encode changed under concurrent clones"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
