package writable

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, w Writable) Writable {
	t.Helper()
	buf := Encode(nil, w)
	if got, want := len(buf), Size(w); got != want {
		t.Fatalf("encoded %d bytes, Size reported %d for %v", got, want, w)
	}
	out, rest, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %v: %v", w, err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode %v left %d bytes", w, len(rest))
	}
	return out
}

func TestNullRoundTrip(t *testing.T) {
	out := roundTrip(t, Null{})
	if _, ok := out.(Null); !ok {
		t.Fatalf("got %T, want Null", out)
	}
}

func TestNilEncodesAsNull(t *testing.T) {
	buf := Encode(nil, nil)
	if len(buf) != 1 || Kind(buf[0]) != KindNull {
		t.Fatalf("nil encoded as %v", buf)
	}
	if Size(nil) != 1 {
		t.Fatalf("Size(nil) = %d, want 1", Size(nil))
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", "日本語", string(make([]byte, 300))} {
		out := roundTrip(t, Text(s))
		if got := out.(Text); string(got) != s {
			t.Fatalf("got %q, want %q", got, s)
		}
	}
}

func TestInt32RoundTrip(t *testing.T) {
	for _, v := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32} {
		out := roundTrip(t, Int32(v))
		if got := out.(Int32); int32(got) != v {
			t.Fatalf("got %d, want %d", got, v)
		}
	}
}

func TestInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		out := roundTrip(t, Int64(v))
		if got := out.(Int64); int64(got) != v {
			t.Fatalf("got %d, want %d", got, v)
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	for _, v := range []float64{0, -0.0, 1.5, -2.25, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
		out := roundTrip(t, Float64(v))
		if got := out.(Float64); float64(got) != v {
			t.Fatalf("got %v, want %v", got, v)
		}
	}
}

func TestFloat64NaNRoundTrip(t *testing.T) {
	out := roundTrip(t, Float64(math.NaN()))
	if got := out.(Float64); !math.IsNaN(float64(got)) {
		t.Fatalf("got %v, want NaN", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, b := range [][]byte{{}, {0}, {1, 2, 3}, make([]byte, 1000)} {
		out := roundTrip(t, Bytes(b))
		got := out.(Bytes)
		if len(got) != len(b) {
			t.Fatalf("got len %d, want %d", len(got), len(b))
		}
		for i := range b {
			if got[i] != b[i] {
				t.Fatalf("byte %d: got %d, want %d", i, got[i], b[i])
			}
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	v := Vector{1, -2.5, math.Pi, 0, 1e300}
	out := roundTrip(t, v).(Vector)
	if len(out) != len(v) {
		t.Fatalf("got len %d, want %d", len(out), len(v))
	}
	for i := range v {
		if out[i] != v[i] {
			t.Fatalf("component %d: got %v, want %v", i, out[i], v[i])
		}
	}
}

func TestEmptyVectorRoundTrip(t *testing.T) {
	out := roundTrip(t, Vector{}).(Vector)
	if len(out) != 0 {
		t.Fatalf("got len %d, want 0", len(out))
	}
}

func TestPairRoundTrip(t *testing.T) {
	p := Pair{First: Vector{1, 2}, Second: Int64(7)}
	out := roundTrip(t, p).(Pair)
	if !Equal(out.First, p.First) || !Equal(out.Second, p.Second) {
		t.Fatalf("got %v, want %v", out, p)
	}
}

func TestNestedPairRoundTrip(t *testing.T) {
	p := Pair{First: Pair{First: Text("x"), Second: Null{}}, Second: Float64(3)}
	out := roundTrip(t, p).(Pair)
	if !Equal(out, p) {
		t.Fatalf("got %v, want %v", out, p)
	}
}

func TestPairWithNilFields(t *testing.T) {
	p := Pair{}
	out := roundTrip(t, p).(Pair)
	if _, ok := out.First.(Null); !ok {
		t.Fatalf("nil First decoded as %T", out.First)
	}
}

func TestDecodeTruncated(t *testing.T) {
	values := []Writable{Text("hello"), Int32(7), Int64(7), Float64(1.5), Bytes{1, 2, 3}, Vector{1, 2, 3}, Pair{First: Text("a"), Second: Int32(1)}}
	for _, w := range values {
		buf := Encode(nil, w)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := Decode(buf[:cut]); err == nil {
				t.Fatalf("decoding %d/%d bytes of %v succeeded", cut, len(buf), w)
			}
		}
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	if _, _, err := Decode([]byte{0xFF}); err == nil {
		t.Fatal("decoding unknown kind succeeded")
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("decoding empty buffer succeeded")
	}
}

func TestDecodeStream(t *testing.T) {
	var buf []byte
	in := []Writable{Text("a"), Int64(42), Vector{1, 2}}
	for _, w := range in {
		buf = Encode(buf, w)
	}
	for i, want := range in {
		var got Writable
		var err error
		got, buf, err = Decode(buf)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !Equal(got, want) {
			t.Fatalf("value %d: got %v, want %v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("stream left %d bytes", len(buf))
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Writable
		want bool
	}{
		{Text("a"), Text("a"), true},
		{Text("a"), Text("b"), false},
		{Int32(1), Int64(1), false},
		{Vector{1, 2}, Vector{1, 2}, true},
		{Vector{1, 2}, Vector{1, 2, 3}, false},
		{Null{}, nil, true},
		{nil, nil, true},
		// NaNs compare by payload, as their encodings do.
		{Float64(nan1), Float64(nan1), true},
		{Float64(nan1), Float64(nan2), false},
		{Vector{nan1, 1}, Vector{nan1, 1}, true},
		{Vector{nan1, 1}, Vector{nan2, 1}, false},
		{Float64(0), Float64(math.Copysign(0, -1)), false},
		{Vector{0}, Vector{math.Copysign(0, -1)}, false},
		// nil and empty slices encode alike.
		{Bytes(nil), Bytes{}, true},
		{Vector(nil), Vector{}, true},
		{List(nil), List{}, true},
		{Bytes{}, Vector{}, false},
		{Bytes(nil), nil, false},
		{Vector(nil), Null{}, false},
		{Text(""), Bytes{}, false},
		{Text("ab"), Bytes("ab"), false},
		// Nested values with nil fields: nil and Null{} are the same.
		{Pair{}, Pair{First: Null{}, Second: Null{}}, true},
		{Pair{First: Vector{1}}, Pair{First: Vector{1}, Second: Null{}}, true},
		{Pair{First: Vector{1}}, Pair{First: Vector{2}}, false},
		{Pair{First: nil, Second: Int32(1)}, Pair{First: Int32(1), Second: nil}, false},
		{List{nil, Pair{}}, List{Null{}, Pair{Second: Null{}}}, true},
		{List{nil}, List{Int32(0)}, false},
		{List{Pair{First: List{nil}}}, List{Pair{First: List{Null{}}}}, true},
		{List{Pair{First: List{nil}}}, List{Pair{First: List{}}}, false},
		// Different kinds holding equal numbers.
		{Int32(7), Int64(7), false},
		{Int64(7), Float64(7), false},
		{Float64(7), Vector{7}, false},
		{Vector{7}, List{Float64(7)}, false},
		{Pair{First: Int32(1), Second: Int32(2)}, List{Int32(1), Int32(2)}, false},
		// Types from outside the package compare through their encoding.
		{foreign{KindVector, Vector{1, 2}}, Vector{1, 2}, true},
		{Vector{1, 2}, foreign{KindVector, Vector{1, 2}}, true},
		{&Vector{1, 2}, Vector{1, 2}, true},
		{foreign{KindVector, Vector{1, 2}}, Vector{1, 3}, false},
		{foreign{KindNull, Null{}}, nil, true},
		{foreign{KindNull, Int32(1)}, Null{}, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got, want := Equal(c.a, c.b), bytes.Equal(Encode(nil, c.a), Encode(nil, c.b)); got != want {
			t.Errorf("Equal(%v, %v) = %v, encodings equal = %v", c.a, c.b, got, want)
		}
		if got := Equal(c.b, c.a); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

// Two quiet NaNs with different payloads.
var (
	nan1 = math.Float64frombits(0x7FF8000000000001)
	nan2 = math.Float64frombits(0x7FF8000000000002)
)

// foreign is a Writable defined outside the package's kinds: it reports
// a chosen kind tag and encodes an inner value's payload.
type foreign struct {
	kind  Kind
	inner Writable
}

func (f foreign) Kind() Kind                 { return f.kind }
func (f foreign) EncodedSize() int           { return f.inner.EncodedSize() }
func (f foreign) AppendTo(dst []byte) []byte { return f.inner.AppendTo(dst) }

// Equal and Clone of the package's kinds must not go through the
// encoding: comparing two vectors and cloning a scalar allocate nothing.
func TestEqualCloneAllocs(t *testing.T) {
	a := make(Vector, 1024)
	b := make(Vector, 1024)
	for i := range a {
		a[i] = float64(i) / 3
		b[i] = a[i]
	}
	var wa, wb Writable = a, b
	if n := testing.AllocsPerRun(100, func() {
		if !Equal(wa, wb) {
			t.Fatal("equal vectors compared unequal")
		}
	}); n != 0 {
		t.Errorf("Equal of two 1024-element Vectors: %v allocs, want 0", n)
	}
	for _, w := range []Writable{Float64(math.Pi), Int32(-3), Int64(1 << 40), Text("row-0042"), Null{}} {
		if n := testing.AllocsPerRun(100, func() {
			if Clone(w) == nil {
				t.Fatal("nil clone")
			}
		}); n != 0 {
			t.Errorf("Clone(%T): %v allocs, want 0", w, n)
		}
	}
}

// Clone yields exactly what a decode of the value's encoding would.
func TestCloneMatchesDecode(t *testing.T) {
	values := []Writable{
		Bytes{}, Bytes(nil), Bytes{1, 2}, Vector(nil), Vector{}, Vector{1.5, math.Copysign(0, -1)},
		Pair{}, Pair{First: Bytes{}}, List(nil), List{nil, Vector(nil), Bytes{}},
		foreign{KindVector, Vector{1}}, &Vector{2}, &Pair{First: Text("x")},
	}
	for _, w := range values {
		want, _, err := Decode(Encode(nil, w))
		if err != nil {
			t.Fatal(err)
		}
		if got := Clone(w); !reflect.DeepEqual(got, want) {
			t.Errorf("Clone(%#v) = %#v, decode gives %#v", w, got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := Clone(v).(Vector)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestCloneNil(t *testing.T) {
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[1] = -1
	if v[1] != 2 {
		t.Fatal("Vector.Clone shares storage")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindNull, KindText, KindInt32, KindInt64, KindFloat64, KindBytes, KindVector, KindPair, Kind(42)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Fatalf("empty name for kind %d", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

// Property: every randomly generated value round-trips through its
// encoding bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		w := randomWritable(rng, 3)
		buf := Encode(nil, w)
		if len(buf) != Size(w) {
			return false
		}
		out, rest, err := Decode(buf)
		return err == nil && len(rest) == 0 && Equal(out, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Size is additive across concatenated encodings.
func TestQuickStreamSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rng.Seed(seed)
		n := rng.Intn(5) + 1
		var buf []byte
		total := 0
		for i := 0; i < n; i++ {
			w := randomWritable(rng, 2)
			buf = Encode(buf, w)
			total += Size(w)
		}
		return len(buf) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomWritable(rng *rand.Rand, depth int) Writable {
	n := 8
	if depth <= 0 {
		n = 6 // no nested pairs or lists at the bottom
	}
	switch rng.Intn(n) {
	case 0:
		return Null{}
	case 1:
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return Text(b)
	case 2:
		return Int32(rng.Int31() - rng.Int31())
	case 3:
		return Int64(rng.Int63() - rng.Int63())
	case 4:
		return Float64(rng.NormFloat64() * 1e6)
	case 5:
		v := make(Vector, rng.Intn(10))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	case 6:
		return Pair{First: randomWritable(rng, depth-1), Second: randomWritable(rng, depth-1)}
	default:
		l := make(List, rng.Intn(4))
		for i := range l {
			l[i] = randomWritable(rng, depth-1)
		}
		return l
	}
}

func TestDecodeRejectsNonCanonicalVarint(t *testing.T) {
	// 0x80 0x00 is a two-byte encoding of zero; the canonical form is
	// the single byte 0x00.
	if _, _, err := Decode([]byte{byte(KindVector), 0x80, 0x00}); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
	if _, _, err := Decode([]byte{byte(KindText), 0x81, 0x00, 'x'}); err == nil {
		t.Fatal("non-minimal text length accepted")
	}
}

func TestListRoundTrip(t *testing.T) {
	l := List{Text("a"), Int64(7), Vector{1, 2}, Null{}}
	out := roundTrip(t, l).(List)
	if len(out) != len(l) {
		t.Fatalf("got len %d, want %d", len(out), len(l))
	}
	for i := range l {
		if !Equal(out[i], l[i]) {
			t.Fatalf("element %d: got %v, want %v", i, out[i], l[i])
		}
	}
}

func TestEmptyListRoundTrip(t *testing.T) {
	out := roundTrip(t, List{}).(List)
	if len(out) != 0 {
		t.Fatalf("got len %d", len(out))
	}
}

func TestNestedListRoundTrip(t *testing.T) {
	l := List{List{Int32(1)}, Pair{First: Text("k"), Second: List{}}}
	out := roundTrip(t, l).(List)
	if !Equal(out, l) {
		t.Fatalf("got %v, want %v", out, l)
	}
}

func TestListTruncatedAndAbsurdLength(t *testing.T) {
	l := List{Text("abc"), Int64(1)}
	buf := Encode(nil, l)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(buf))
		}
	}
	// Claimed length far beyond the buffer must be rejected cheaply.
	if _, _, err := Decode([]byte{byte(KindList), 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("absurd list length accepted")
	}
}
