package writable

import "testing"

func BenchmarkEncodeVector(b *testing.B) {
	v := make(Vector, 100)
	for i := range v {
		v[i] = float64(i)
	}
	buf := make([]byte, 0, Size(v))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], v)
	}
}

func BenchmarkDecodeVector(b *testing.B) {
	v := make(Vector, 100)
	buf := Encode(nil, v)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePair(b *testing.B) {
	p := Pair{First: Text("centroid-00042"), Second: Vector{1, 2, 3}}
	buf := make([]byte, 0, Size(p))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], p)
	}
}

func BenchmarkSizeVector(b *testing.B) {
	v := make(Vector, 100)
	for i := 0; i < b.N; i++ {
		if Size(v) == 0 {
			b.Fatal("zero size")
		}
	}
}

// smoothingRow is a 1024-wide vector, the width of a smoothing image row.
func smoothingRow() Vector {
	v := make(Vector, 1024)
	for i := range v {
		v[i] = float64(i) / 7
	}
	return v
}

func BenchmarkEqualVector(b *testing.B) {
	var x, y Writable = smoothingRow(), smoothingRow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Equal(x, y) {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkCloneVector(b *testing.B) {
	var x Writable = smoothingRow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Clone(x) == nil {
			b.Fatal("nil clone")
		}
	}
}

func BenchmarkCloneFloat64(b *testing.B) {
	var x Writable = Float64(0.85)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Clone(x) == nil {
			b.Fatal("nil clone")
		}
	}
}
