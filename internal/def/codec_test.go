package def

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// fieldsTokens is the tokenizer Tokenize replaced, kept as its oracle: every
// punct byte padded with spaces, then strings.Fields per line.
func fieldsTokens(r io.Reader, punct string) ([]string, error) {
	var pairs []string
	for i := 0; i < len(punct); i++ {
		pairs = append(pairs, punct[i:i+1], " "+punct[i:i+1]+" ")
	}
	rep := strings.NewReplacer(pairs...)
	var toks []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		toks = append(toks, strings.Fields(rep.Replace(line))...)
	}
	return toks, sc.Err()
}

// FuzzTokens checks Tokenize against the NewReplacer+Fields oracle for both
// punctuation sets in use: DEF's "();" and LEF's ";".
func FuzzTokens(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteWithFill(&seed, sampleLayout(), []FillRect{{Layer: 1, Rect: geom.NewRect(-5, 0, 300, 300)}}); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		seed.String(),
		"",
		"DIEAREA (0 0) (100 200);",
		"a\tb\r\nc\vd\fe  f\r",
		"x\u0085y\u00a0z\u2028w\u3000v",
		"bad\xffutf8\xc3(1 2)\xe2\x80;",
		"VERSION 5.6 ; # comment ( ) ;\n# whole line\nEND DESIGN",
		"((;;))#(\n)",
		"LAYER m1 ;\n  WIDTH 0.2 ;\nEND m1\nEND LIBRARY",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, punct := range []string{"();", ";"} {
			want, wantErr := fieldsTokens(strings.NewReader(src), punct)
			got, err := Tokenize(strings.NewReader(src), punct)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("punct %q: err %v, oracle err %v", punct, err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("punct %q on %q:\n got %q\nwant %q", punct, src, got, want)
			}
		}
	})
}

// fmtWrite is the fmt.Fprintf encoder WriteWithFill replaced, kept as its
// byte-for-byte reference.
func fmtWrite(w io.Writer, l *layout.Layout, fills []FillRect) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.6 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS 1000 ;\n", l.Name)
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", l.Die.X1, l.Die.Y1, l.Die.X2, l.Die.Y2)
	fmt.Fprintf(bw, "LAYERS %d ;\n", len(l.Layers))
	for _, ly := range l.Layers {
		dir := "HORIZONTAL"
		if ly.Dir == layout.Vertical {
			dir = "VERTICAL"
		}
		fmt.Fprintf(bw, "- %s %s %d ;\n", ly.Name, dir, ly.Width)
	}
	fmt.Fprintf(bw, "END LAYERS\nNETS %d ;\n", len(l.Nets))
	for _, n := range l.Nets {
		fmt.Fprintf(bw, "- %s\n", n.Name)
		fmt.Fprintf(bw, "  + SOURCE ( %d %d ) LAYER %s\n", n.Source.P.X, n.Source.P.Y, l.Layers[n.Source.Layer].Name)
		for _, s := range n.Sinks {
			fmt.Fprintf(bw, "  + SINK ( %d %d ) LAYER %s\n", s.P.X, s.P.Y, l.Layers[s.Layer].Name)
		}
		for i, s := range n.Segments {
			kw := "NEW"
			indent := "    "
			if i == 0 {
				kw = "+ ROUTED"
				indent = "  "
			}
			fmt.Fprintf(bw, "%s%s %s %d ( %d %d ) ( %d %d )\n", indent, kw,
				l.Layers[s.Layer].Name, s.Width, s.A.X, s.A.Y, s.B.X, s.B.Y)
		}
		fmt.Fprintf(bw, ";\n")
	}
	fmt.Fprintf(bw, "END NETS\n")
	if len(fills) > 0 {
		fmt.Fprintf(bw, "FILLS %d ;\n", len(fills))
		for _, f := range fills {
			fmt.Fprintf(bw, "- LAYER %s RECT ( %d %d ) ( %d %d ) ;\n",
				l.Layers[f.Layer].Name, f.Rect.X1, f.Rect.Y1, f.Rect.X2, f.Rect.Y2)
		}
		fmt.Fprintf(bw, "END FILLS\n")
	}
	fmt.Fprintf(bw, "END DESIGN\n")
	return bw.Flush()
}

// randomDesign draws a layout and fill list with every shape the encoder
// writes: several layers of both directions, negative and extreme
// coordinates, multi-sink and multi-segment nets, and no or many fills.
func randomDesign(rng *rand.Rand, nFills int) (*layout.Layout, []FillRect) {
	coord := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return -rng.Int63()
		case 1:
			return rng.Int63()
		default:
			return rng.Int63n(2_000_000) - 1_000_000
		}
	}
	pt := func() geom.Point { return geom.Point{X: coord(), Y: coord()} }
	l := &layout.Layout{
		Name: fmt.Sprintf("design_%d", rng.Intn(1000)),
		Die:  geom.Rect{X1: coord(), Y1: coord(), X2: coord(), Y2: coord()},
	}
	for i := 1 + rng.Intn(5); i > 0; i-- {
		l.Layers = append(l.Layers, layout.Layer{
			Name:  fmt.Sprintf("metal%d", len(l.Layers)+1),
			Dir:   layout.Direction(rng.Intn(2)),
			Width: rng.Int63n(1000),
		})
	}
	layer := func() int { return rng.Intn(len(l.Layers)) }
	for i := rng.Intn(30); i > 0; i-- {
		n := &layout.Net{Name: fmt.Sprintf("n%d", len(l.Nets)), Source: layout.Pin{P: pt(), Layer: layer()}}
		for k := rng.Intn(6); k > 0; k-- {
			n.Sinks = append(n.Sinks, layout.Pin{P: pt(), Layer: layer()})
		}
		for k := rng.Intn(8); k > 0; k-- {
			n.Segments = append(n.Segments, layout.Segment{Layer: layer(), A: pt(), B: pt(), Width: rng.Int63n(500)})
		}
		l.Nets = append(l.Nets, n)
	}
	fills := make([]FillRect, nFills)
	for i := range fills {
		fills[i] = FillRect{Layer: layer(), Rect: geom.Rect{X1: coord(), Y1: coord(), X2: coord(), Y2: coord()}}
	}
	return l, fills
}

func TestWriteMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		nFills := 0
		if trial%2 == 1 {
			nFills = rng.Intn(2000)
		}
		l, fills := randomDesign(rng, nFills)
		var got, want bytes.Buffer
		if err := WriteWithFill(&got, l, fills); err != nil {
			t.Fatal(err)
		}
		if err := fmtWrite(&want, l, fills); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("trial %d: output differs from the fmt reference at byte %d:\n got %q\nwant %q",
				trial, i, g[i:min(i+80, len(g))], w[i:min(i+80, len(w))])
		}
	}
}

// TestWriteAllocsFlat: the encoder's allocations do not grow with the
// number of fills it writes.
func TestWriteAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, many := randomDesign(rng, 20000)
	for _, fills := range [][]FillRect{nil, many[:10], many} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := WriteWithFill(io.Discard, l, fills); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("WriteWithFill with %d fills: %.0f allocs, want at most 3", len(fills), allocs)
		}
	}
}
