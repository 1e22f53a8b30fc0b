package gds

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/geom"
)

func mustReal8(t *testing.T, f float64) []byte {
	t.Helper()
	b, err := real8(f)
	if err != nil {
		t.Fatalf("real8(%g): %v", f, err)
	}
	return b
}

func TestReal8RoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.001, 1e-9, 2, 16, 1.0 / 16, 3.14159265, -42.5, 1e-3, 1e6}
	for _, f := range cases {
		got := parseReal8(mustReal8(t, f))
		tol := math.Abs(f) * 1e-14
		if math.Abs(got-f) > tol {
			t.Errorf("real8 round trip %g -> %g", f, got)
		}
	}
}

func TestQuickReal8RoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		b, err := real8(v)
		if err != nil {
			return false
		}
		got := parseReal8(b)
		return math.Abs(got-v) <= math.Abs(v)*1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReal8WritesUnnormalized: a real whose mantissa has leading zero
// digits at the lowest exponent is below every normalized value, yet Read
// accepts it in UNITS, so Write must encode it back instead of failing
// (found by FuzzRead).
func TestReal8WritesUnnormalized(t *testing.T) {
	for _, in := range [][]byte{
		{0x00, 0x00, 0x04, 0x30, 0x30, 0x30, 0x30, 0x30},
		{0x80, 0x01, 0, 0, 0, 0, 0, 0},
		{0x00, 0, 0, 0, 0, 0, 0, 0x01},
	} {
		v := parseReal8(in)
		b, err := real8(v)
		if err != nil {
			t.Fatalf("real8(%g) from % x: %v", v, in, err)
		}
		if got := parseReal8(b); got != v {
			t.Errorf("% x: %g wrote as % x, reads back %g", in, v, b, got)
		}
	}
}

func TestReal8RejectsUnrepresentable(t *testing.T) {
	// Regression: out-of-range magnitudes used to saturate silently to the
	// largest exponent (and ±Inf spun the normalize loop forever), so a bogus
	// UserUnit produced a syntactically valid stream with corrupt units.
	for _, f := range []float64{1e200, -1e200, 5e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := real8(f); err == nil {
			t.Errorf("real8(%g) succeeded, want error", f)
		}
	}
	lib := sampleLib()
	lib.UserUnit = 1e200
	if err := Write(&bytes.Buffer{}, lib); err == nil {
		t.Error("Write with unrepresentable UserUnit succeeded, want error")
	}
	lib = sampleLib()
	lib.MetersPerDBU = math.Inf(1)
	if err := Write(&bytes.Buffer{}, lib); err == nil {
		t.Error("Write with infinite MetersPerDBU succeeded, want error")
	}
}

func sampleLib() *Library {
	return &Library{
		Name:       "FILLLIB",
		StructName: "CHIP",
		Shapes: []Shape{
			{Layer: 3, Datatype: 0, Rect: geom.Rect{X1: 0, Y1: 0, X2: 300, Y2: 300}},
			{Layer: 3, Datatype: 1, Rect: geom.Rect{X1: 400, Y1: 0, X2: 700, Y2: 300}},
			{Layer: 5, Datatype: 0, Rect: geom.Rect{X1: -100, Y1: -100, X2: 0, Y2: 0}},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	lib := sampleLib()
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "FILLLIB" || got.StructName != "CHIP" {
		t.Errorf("names: %q %q", got.Name, got.StructName)
	}
	if math.Abs(got.UserUnit-1e-3) > 1e-18 || math.Abs(got.MetersPerDBU-1e-9) > 1e-24 {
		t.Errorf("units: %g %g", got.UserUnit, got.MetersPerDBU)
	}
	if len(got.Shapes) != len(lib.Shapes) {
		t.Fatalf("shapes = %d, want %d", len(got.Shapes), len(lib.Shapes))
	}
	for i, s := range lib.Shapes {
		if got.Shapes[i] != s {
			t.Errorf("shape %d = %+v, want %+v", i, got.Shapes[i], s)
		}
	}
}

func TestWriteSkipsEmptyRects(t *testing.T) {
	lib := &Library{Shapes: []Shape{{Layer: 1, Rect: geom.Rect{}}}}
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shapes) != 0 {
		t.Errorf("empty rect written: %v", got.Shapes)
	}
}

func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, sampleLib()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, sampleLib()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("non-deterministic GDS output")
	}
}

func TestReadErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLib()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation anywhere must error, never panic.
	for _, cut := range []int{0, 1, 3, 7, len(full) / 2, len(full) - 2} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated at %d: no error", cut)
		}
	}
	// Corrupt record type.
	bad := append([]byte(nil), full...)
	bad[2] = 0x7F
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("bad record type: err = %v", err)
	}
	// Odd record length.
	bad2 := append([]byte(nil), full...)
	bad2[1] = 0x05
	if _, err := Read(bytes.NewReader(bad2)); !errors.Is(err, ErrFormat) {
		t.Errorf("odd length: err = %v", err)
	}
}

func TestReadRejectsNonRectangularBoundary(t *testing.T) {
	// Hand-build a stream with a triangular boundary.
	var buf bytes.Buffer
	w := &writer{w: bufio.NewWriter(&buf)}
	w.record(recHEADER, int16s(600))
	w.record(recBGNLIB, int16s(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	w.record(recLIBNAME, gdsString("L"))
	w.record(recUNITS, append(mustReal8(t, 1e-3), mustReal8(t, 1e-9)...))
	w.record(recBGNSTR, int16s(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	w.record(recSTRNAME, gdsString("S"))
	w.record(recBOUNDARY, nil)
	w.record(recLAYER, int16s(1))
	w.record(recDATATYPE, int16s(0))
	w.record(recXY, int32s(0, 0, 100, 0, 50, 100, 0, 0))
	w.record(recENDEL, nil)
	w.record(recENDSTR, nil)
	w.record(recENDLIB, nil)
	if w.err != nil {
		t.Fatal(w.err)
	}
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("triangle accepted: %v", err)
	}
}

func TestQuickShapeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lib := &Library{}
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			x := rng.Int63n(1 << 20)
			y := rng.Int63n(1 << 20)
			lib.Shapes = append(lib.Shapes, Shape{
				Layer:    int16(rng.Intn(64)),
				Datatype: int16(rng.Intn(4)),
				Rect:     geom.Rect{X1: x, Y1: y, X2: x + 1 + rng.Int63n(1000), Y2: y + 1 + rng.Int63n(1000)},
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, lib); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Shapes) != n {
			return false
		}
		for i := range lib.Shapes {
			if got.Shapes[i] != lib.Shapes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite1000Shapes(b *testing.B) {
	lib := &Library{}
	for i := 0; i < 1000; i++ {
		x := int64(i * 400)
		lib.Shapes = append(lib.Shapes, Shape{Layer: 3, Rect: geom.Rect{X1: x, Y1: 0, X2: x + 300, Y2: 300}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, lib); err != nil {
			b.Fatal(err)
		}
	}
}
