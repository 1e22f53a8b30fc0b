// Package gds writes and reads the subset of the GDSII Stream format needed
// to export filled layouts: one library, one structure, BOUNDARY elements
// (axis-aligned rectangles) on integer layer numbers. The record framing,
// data types, and the 8-byte excess-64 floating point encoding follow the
// Calma GDSII Stream Format specification, release 6.
package gds

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pilfill/internal/geom"
)

// Record types used by this subset.
const (
	recHEADER   = 0x0002
	recBGNLIB   = 0x0102
	recLIBNAME  = 0x0206
	recUNITS    = 0x0305
	recENDLIB   = 0x0400
	recBGNSTR   = 0x0502
	recSTRNAME  = 0x0606
	recENDSTR   = 0x0700
	recBOUNDARY = 0x0800
	recLAYER    = 0x0D02
	recDATATYPE = 0x0E02
	recXY       = 0x1003
	recENDEL    = 0x1100
)

// Shape is one rectangle on a layer.
type Shape struct {
	Layer    int16
	Datatype int16
	Rect     geom.Rect
}

// Library is a minimal GDSII design: a single structure full of rectangles.
// UserUnit is the size of one database unit in user units and MetersPerDBU
// its physical size; the pipeline writes 1 dbu = 1 nm.
type Library struct {
	Name         string
	StructName   string
	UserUnit     float64 // user units per dbu (0.001 = dbu is a thousandth of a micron)
	MetersPerDBU float64 // meters per dbu (1e-9 for nm)
	Shapes       []Shape
}

// DefaultUnits configures 1 dbu = 1 nm with microns as the user unit.
func (l *Library) defaults() {
	if l.UserUnit == 0 {
		l.UserUnit = 1e-3
	}
	if l.MetersPerDBU == 0 {
		l.MetersPerDBU = 1e-9
	}
	if l.StructName == "" {
		l.StructName = "TOP"
	}
	if l.Name == "" {
		l.Name = "LIB"
	}
}

// fixedTimestamp is written into BGNLIB/BGNSTR so output is byte-for-byte
// reproducible (GDSII requires a modification and an access time).
var fixedTimestamp = [6]int16{2003, 6, 2, 0, 0, 0} // DAC 2003

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) record(recType uint16, payload []byte) {
	if w.err != nil {
		return
	}
	length := 4 + len(payload)
	if length%2 != 0 {
		w.err = fmt.Errorf("gds: odd record length %d", length)
		return
	}
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(length))
	binary.BigEndian.PutUint16(hdr[2:4], recType)
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
	}
}

func int16s(vals ...int16) []byte {
	out := make([]byte, 2*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}

func int32s(vals ...int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func gdsString(s string) []byte {
	b := []byte(s)
	if len(b)%2 != 0 {
		b = append(b, 0)
	}
	return b
}

// real8 encodes an excess-64, base-16 GDSII floating point number. Values
// outside the format's range (roughly 16^-78 to 16^63), NaN and infinities
// are errors: saturating them silently would write a units record wildly
// different from what the caller asked for, corrupting every coordinate in
// the stream for any reader that honors UNITS.
func real8(f float64) ([]byte, error) {
	out := make([]byte, 8)
	if f == 0 {
		return out, nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("gds: %v is not representable as a GDSII real", f)
	}
	sign := byte(0)
	if f < 0 {
		sign = 0x80
		f = -f
	}
	// Normalize mantissa into [1/16, 1) with exponent base 16.
	exp := 64
	for f >= 1 {
		f /= 16
		exp++
	}
	for f < 1.0/16 {
		f *= 16
		exp--
	}
	norm := exp
	if exp < 0 {
		// Below 16^-65 the value still fits at the lowest exponent with
		// leading zero digits in the mantissa, which is how parseReal8 (and
		// any GDSII reader) decodes such a record.
		f = math.Ldexp(f, 4*exp)
		exp = 0
	}
	mant := uint64(math.Round(f * (1 << 56)))
	if mant >= 1<<56 {
		mant >>= 4
		exp++
	}
	if mant == 0 || exp > 127 {
		return nil, fmt.Errorf("gds: magnitude out of GDSII real range (base-16 exponent %d)", norm-64)
	}
	out[0] = sign | byte(exp)
	for i := 0; i < 7; i++ {
		out[1+i] = byte(mant >> (8 * (6 - i)))
	}
	return out, nil
}

// parseReal8 decodes an excess-64 GDSII real.
func parseReal8(b []byte) float64 {
	sign := 1.0
	if b[0]&0x80 != 0 {
		sign = -1
	}
	exp := int(b[0]&0x7F) - 64
	var mant uint64
	for i := 0; i < 7; i++ {
		mant = mant<<8 | uint64(b[1+i])
	}
	return sign * float64(mant) / math.Pow(2, 56) * math.Pow(16, float64(exp))
}

// Write emits the library as a GDSII stream.
func Write(out io.Writer, lib *Library) error {
	lib.defaults()
	w := &writer{w: bufio.NewWriter(out)}
	ts := fixedTimestamp
	w.record(recHEADER, int16s(600))
	w.record(recBGNLIB, int16s(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5], ts[0], ts[1], ts[2], ts[3], ts[4], ts[5]))
	w.record(recLIBNAME, gdsString(lib.Name))
	uu, err := real8(lib.UserUnit)
	if err != nil {
		return fmt.Errorf("gds: UserUnit: %w", err)
	}
	mpd, err := real8(lib.MetersPerDBU)
	if err != nil {
		return fmt.Errorf("gds: MetersPerDBU: %w", err)
	}
	w.record(recUNITS, append(uu, mpd...))
	w.record(recBGNSTR, int16s(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5], ts[0], ts[1], ts[2], ts[3], ts[4], ts[5]))
	w.record(recSTRNAME, gdsString(lib.StructName))
	for _, s := range lib.Shapes {
		r := s.Rect
		if r.Empty() {
			continue
		}
		w.record(recBOUNDARY, nil)
		w.record(recLAYER, int16s(s.Layer))
		w.record(recDATATYPE, int16s(s.Datatype))
		// Closed polygon: 5 points, first repeated last.
		w.record(recXY, int32s(
			int32(r.X1), int32(r.Y1),
			int32(r.X2), int32(r.Y1),
			int32(r.X2), int32(r.Y2),
			int32(r.X1), int32(r.Y2),
			int32(r.X1), int32(r.Y1),
		))
		w.record(recENDEL, nil)
	}
	w.record(recENDSTR, nil)
	w.record(recENDLIB, nil)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// ErrFormat reports a malformed or unsupported stream.
var ErrFormat = errors.New("gds: malformed stream")

// Read parses a stream written by Write (or any stream limited to the same
// record subset with rectangular BOUNDARY elements).
func Read(in io.Reader) (*Library, error) {
	br := bufio.NewReader(in)
	lib := &Library{}
	var cur *Shape
	sawHeader := false
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF && sawHeader {
				return nil, fmt.Errorf("%w: missing ENDLIB", ErrFormat)
			}
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		length := int(binary.BigEndian.Uint16(hdr[0:2]))
		recType := binary.BigEndian.Uint16(hdr[2:4])
		if length < 4 || length%2 != 0 {
			return nil, fmt.Errorf("%w: record length %d", ErrFormat, length)
		}
		payload := make([]byte, length-4)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrFormat, err)
		}
		switch recType {
		case recHEADER:
			sawHeader = true
		case recBGNLIB, recBGNSTR, recENDSTR:
			// Timestamps / structure bracketing: nothing to retain.
		case recLIBNAME:
			lib.Name = cstr(payload)
		case recSTRNAME:
			lib.StructName = cstr(payload)
		case recUNITS:
			if len(payload) != 16 {
				return nil, fmt.Errorf("%w: UNITS payload %d bytes", ErrFormat, len(payload))
			}
			lib.UserUnit = parseReal8(payload[0:8])
			lib.MetersPerDBU = parseReal8(payload[8:16])
		case recBOUNDARY:
			cur = &Shape{}
		case recLAYER:
			if cur == nil {
				return nil, fmt.Errorf("%w: LAYER outside element", ErrFormat)
			}
			if len(payload) < 2 {
				return nil, fmt.Errorf("%w: LAYER payload %d bytes", ErrFormat, len(payload))
			}
			cur.Layer = int16(binary.BigEndian.Uint16(payload))
		case recDATATYPE:
			if cur == nil {
				return nil, fmt.Errorf("%w: DATATYPE outside element", ErrFormat)
			}
			if len(payload) < 2 {
				return nil, fmt.Errorf("%w: DATATYPE payload %d bytes", ErrFormat, len(payload))
			}
			cur.Datatype = int16(binary.BigEndian.Uint16(payload))
		case recXY:
			if cur == nil {
				return nil, fmt.Errorf("%w: XY outside element", ErrFormat)
			}
			if len(payload)%8 != 0 {
				return nil, fmt.Errorf("%w: XY payload %d bytes", ErrFormat, len(payload))
			}
			n := len(payload) / 8
			xs := make([]int32, n)
			ys := make([]int32, n)
			minX, minY := int32(math.MaxInt32), int32(math.MaxInt32)
			maxX, maxY := int32(math.MinInt32), int32(math.MinInt32)
			for i := 0; i < n; i++ {
				xs[i] = int32(binary.BigEndian.Uint32(payload[8*i:]))
				ys[i] = int32(binary.BigEndian.Uint32(payload[8*i+4:]))
				if xs[i] < minX {
					minX = xs[i]
				}
				if xs[i] > maxX {
					maxX = xs[i]
				}
				if ys[i] < minY {
					minY = ys[i]
				}
				if ys[i] > maxY {
					maxY = ys[i]
				}
			}
			// Verify the polygon is its own bounding rectangle (every vertex
			// on a corner) — the only polygons this subset supports.
			for i := 0; i < n; i++ {
				if (xs[i] != minX && xs[i] != maxX) || (ys[i] != minY && ys[i] != maxY) {
					return nil, fmt.Errorf("%w: non-rectangular boundary", ErrFormat)
				}
			}
			cur.Rect = geom.Rect{X1: int64(minX), Y1: int64(minY), X2: int64(maxX), Y2: int64(maxY)}
		case recENDEL:
			if cur == nil {
				return nil, fmt.Errorf("%w: ENDEL outside element", ErrFormat)
			}
			lib.Shapes = append(lib.Shapes, *cur)
			cur = nil
		case recENDLIB:
			if !sawHeader {
				return nil, fmt.Errorf("%w: ENDLIB before HEADER", ErrFormat)
			}
			return lib, nil
		default:
			return nil, fmt.Errorf("%w: unsupported record type 0x%04X", ErrFormat, recType)
		}
	}
}

// cstr strips GDSII string padding.
func cstr(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}
