// Package def reads and writes routed layouts in a documented subset of the
// DEF (Design Exchange Format) text format. Real DEF depends on a companion
// LEF for layer definitions; this subset inlines a LAYERS section so a file
// is self-contained. The dialect:
//
//	VERSION 5.6 ;
//	DESIGN <name> ;
//	UNITS DISTANCE MICRONS 1000 ;
//	DIEAREA ( x1 y1 ) ( x2 y2 ) ;
//	LAYERS <count> ;
//	- <name> HORIZONTAL|VERTICAL <defaultWidth> ;
//	END LAYERS
//	NETS <count> ;
//	- <netName>
//	  + SOURCE ( x y ) LAYER <layerName>
//	  + SINK ( x y ) LAYER <layerName>        (one per sink)
//	  + ROUTED <layerName> <width> ( x y ) ( x y )
//	    NEW <layerName> <width> ( x y ) ( x y ) ...
//	;
//	END NETS
//	FILLS <count> ;                           (optional)
//	- LAYER <layerName> RECT ( x1 y1 ) ( x2 y2 ) ;
//	END FILLS
//	END DESIGN
//
// Coordinates are database units; with "MICRONS 1000" they are nanometers,
// matching the rest of the pipeline.
package def

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// FillRect is one fill feature rectangle from a FILLS section.
type FillRect struct {
	Layer int
	Rect  geom.Rect
}

// Write emits the layout without fill.
func Write(w io.Writer, l *layout.Layout) error {
	return WriteWithFill(w, l, nil)
}

// WriteWithFill emits the layout plus the given fill rectangles. Each line
// is appended into one reused buffer and handed to a bufio.Writer, so the
// encoder allocates a fixed amount however many fills it writes.
func WriteWithFill(w io.Writer, l *layout.Layout, fills []FillRect) error {
	bw := bufio.NewWriter(w)
	e := encoder{w: bw, buf: make([]byte, 0, 256)}
	e.str("VERSION 5.6 ;\nDESIGN ").str(l.Name).str(" ;\nUNITS DISTANCE MICRONS 1000 ;\n").line()
	e.str("DIEAREA").pt(l.Die.X1, l.Die.Y1).pt(l.Die.X2, l.Die.Y2).str(" ;\n").line()
	e.str("LAYERS ").int(int64(len(l.Layers))).str(" ;\n").line()
	for _, ly := range l.Layers {
		dir := "HORIZONTAL"
		if ly.Dir == layout.Vertical {
			dir = "VERTICAL"
		}
		e.str("- ").str(ly.Name).str(" ").str(dir).str(" ").int(ly.Width).str(" ;\n").line()
	}
	e.str("END LAYERS\nNETS ").int(int64(len(l.Nets))).str(" ;\n").line()
	for _, n := range l.Nets {
		e.str("- ").str(n.Name).str("\n").line()
		e.str("  + SOURCE").pt(n.Source.P.X, n.Source.P.Y).str(" LAYER ").str(l.Layers[n.Source.Layer].Name).str("\n").line()
		for _, s := range n.Sinks {
			e.str("  + SINK").pt(s.P.X, s.P.Y).str(" LAYER ").str(l.Layers[s.Layer].Name).str("\n").line()
		}
		for i, s := range n.Segments {
			kw := "    NEW "
			if i == 0 {
				kw = "  + ROUTED "
			}
			e.str(kw).str(l.Layers[s.Layer].Name).str(" ").int(s.Width).
				pt(s.A.X, s.A.Y).pt(s.B.X, s.B.Y).str("\n").line()
		}
		e.str(";\n").line()
	}
	e.str("END NETS\n").line()
	if len(fills) > 0 {
		e.str("FILLS ").int(int64(len(fills))).str(" ;\n").line()
		for _, f := range fills {
			e.str("- LAYER ").str(l.Layers[f.Layer].Name).str(" RECT").
				pt(f.Rect.X1, f.Rect.Y1).pt(f.Rect.X2, f.Rect.Y2).str(" ;\n").line()
		}
		e.str("END FILLS\n").line()
	}
	e.str("END DESIGN\n").line()
	return bw.Flush()
}

// encoder builds one output line at a time in buf. A write error sticks in
// the bufio.Writer and surfaces from its Flush.
type encoder struct {
	w   *bufio.Writer
	buf []byte
}

func (e *encoder) str(s string) *encoder {
	e.buf = append(e.buf, s...)
	return e
}

func (e *encoder) int(v int64) *encoder {
	e.buf = strconv.AppendInt(e.buf, v, 10)
	return e
}

// pt appends " ( x y )".
func (e *encoder) pt(x, y int64) *encoder {
	e.buf = append(e.buf, " ( "...)
	e.buf = strconv.AppendInt(e.buf, x, 10)
	e.buf = append(e.buf, ' ')
	e.buf = strconv.AppendInt(e.buf, y, 10)
	e.buf = append(e.buf, " )"...)
	return e
}

// line hands the finished line to the writer and resets buf.
func (e *encoder) line() {
	e.w.Write(e.buf)
	e.buf = e.buf[:0]
}

// FillRects converts a FillSet's grid sites to rectangles for writing.
func FillRects(fs *layout.FillSet) []FillRect {
	out := make([]FillRect, 0, len(fs.Fills))
	for _, f := range fs.Fills {
		out = append(out, FillRect{Layer: fs.Layer, Rect: fs.Grid.SiteRect(f.Col, f.Row)})
	}
	return out
}

// Tokenize splits a text stream into the tokens the DEF and LEF readers
// parse. Each line loses everything from its first '#'; the rest splits at
// white space as strings.Fields splits it (unicode.IsSpace, with invalid
// UTF-8 never a separator), and every byte of punct, which must be ASCII, is
// a token of its own even when unspaced, so "(100 200);" reads as
// "(", "100", "200", ")", ";". Tokens are substrings of one string per line.
func Tokenize(r io.Reader, punct string) ([]string, error) {
	const (
		word uint8 = iota
		space
		sep
	)
	var class [utf8.RuneSelf]uint8
	for _, c := range []byte("\t\n\v\f\r ") {
		class[c] = space
	}
	for i := 0; i < len(punct); i++ {
		class[punct[i]] = sep
	}
	var toks []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		b := sc.Bytes()
		if i := bytes.IndexByte(b, '#'); i >= 0 {
			b = b[:i]
		}
		line := string(b)
		start := -1 // first byte of the token being read, or -1 between tokens
		for i := 0; i < len(line); {
			cls, size := word, 1
			if c := line[i]; c < utf8.RuneSelf {
				cls = class[c]
			} else {
				var r rune
				r, size = utf8.DecodeRuneInString(line[i:])
				if unicode.IsSpace(r) {
					cls = space
				}
			}
			if cls != word && start >= 0 {
				toks = append(toks, line[start:i])
				start = -1
			}
			switch {
			case cls == sep:
				toks = append(toks, line[i:i+1])
			case cls == word && start < 0:
				start = i
			}
			i += size
		}
		if start >= 0 {
			toks = append(toks, line[start:])
		}
	}
	return toks, sc.Err()
}

// parser is a whitespace token stream with one-token lookahead.
type parser struct {
	toks []string
	pos  int
}

func (p *parser) errf(format string, args ...any) error {
	loc := "EOF"
	if p.pos < len(p.toks) {
		loc = fmt.Sprintf("token %d (%q)", p.pos, p.toks[p.pos])
	}
	return fmt.Errorf("def: %s at %s", fmt.Sprintf(format, args...), loc)
}

func (p *parser) next() (string, error) {
	if p.pos >= len(p.toks) {
		return "", p.errf("unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) expect(want string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != want {
		p.pos--
		return p.errf("expected %q, got %q", want, t)
	}
	return nil
}

func (p *parser) integer() (int64, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		p.pos--
		return 0, p.errf("expected integer, got %q", t)
	}
	return v, nil
}

func (p *parser) point() (geom.Point, error) {
	if err := p.expect("("); err != nil {
		return geom.Point{}, err
	}
	x, err := p.integer()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := p.integer()
	if err != nil {
		return geom.Point{}, err
	}
	if err := p.expect(")"); err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

// Parse reads a layout (and any FILLS) from the subset dialect. The file
// must carry its own inline LAYERS section; for a standard LEF/DEF split use
// ParseWith.
func Parse(r io.Reader) (*layout.Layout, []FillRect, error) {
	return ParseWith(r, nil)
}

// ParseWith reads a DEF whose layer definitions may come from an external
// source (typically a parsed LEF library). When predefined is non-nil the
// DEF's inline LAYERS section becomes optional; if both are present the
// inline section must not conflict by redefining an existing name.
func ParseWith(r io.Reader, predefined []layout.Layer) (*layout.Layout, []FillRect, error) {
	// Tolerate unspaced punctuation: "(100 200)" etc.
	toks, err := Tokenize(r, "();")
	if err != nil {
		return nil, nil, fmt.Errorf("def: read: %w", err)
	}
	p := &parser{toks: toks}

	l := &layout.Layout{}
	layerIdx := map[string]int{}
	for _, ly := range predefined {
		if _, dup := layerIdx[ly.Name]; dup {
			return nil, nil, fmt.Errorf("def: duplicate predefined layer %q", ly.Name)
		}
		layerIdx[ly.Name] = len(l.Layers)
		l.Layers = append(l.Layers, ly)
	}

	if err := p.expect("VERSION"); err != nil {
		return nil, nil, err
	}
	if _, err := p.next(); err != nil { // version number
		return nil, nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}
	if err := p.expect("DESIGN"); err != nil {
		return nil, nil, err
	}
	name, err := p.next()
	if err != nil {
		return nil, nil, err
	}
	l.Name = name
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}
	for _, kw := range []string{"UNITS", "DISTANCE", "MICRONS"} {
		if err := p.expect(kw); err != nil {
			return nil, nil, err
		}
	}
	dbu, err := p.integer()
	if err != nil {
		return nil, nil, err
	}
	if dbu != 1000 {
		return nil, nil, p.errf("unsupported database units %d (need 1000 = nm)", dbu)
	}
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}

	if err := p.expect("DIEAREA"); err != nil {
		return nil, nil, err
	}
	c1, err := p.point()
	if err != nil {
		return nil, nil, err
	}
	c2, err := p.point()
	if err != nil {
		return nil, nil, err
	}
	l.Die = geom.NewRect(c1.X, c1.Y, c2.X, c2.Y)
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}

	hasInline := p.peek() == "LAYERS"
	if !hasInline && len(l.Layers) == 0 {
		return nil, nil, p.errf("no LAYERS section and no predefined layers")
	}
	var nLayers int64
	if hasInline {
		if err := p.expect("LAYERS"); err != nil {
			return nil, nil, err
		}
		var err error
		nLayers, err = p.integer()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, nil, err
		}
	}
	for i := int64(0); i < nLayers; i++ {
		if err := p.expect("-"); err != nil {
			return nil, nil, err
		}
		lname, err := p.next()
		if err != nil {
			return nil, nil, err
		}
		dirTok, err := p.next()
		if err != nil {
			return nil, nil, err
		}
		var dir layout.Direction
		switch dirTok {
		case "HORIZONTAL":
			dir = layout.Horizontal
		case "VERTICAL":
			dir = layout.Vertical
		default:
			p.pos--
			return nil, nil, p.errf("bad layer direction %q", dirTok)
		}
		w, err := p.integer()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, nil, err
		}
		if _, dup := layerIdx[lname]; dup {
			return nil, nil, p.errf("duplicate layer %q", lname)
		}
		layerIdx[lname] = len(l.Layers)
		l.Layers = append(l.Layers, layout.Layer{Name: lname, Dir: dir, Width: w})
	}
	if hasInline {
		if err := p.expect("END"); err != nil {
			return nil, nil, err
		}
		if err := p.expect("LAYERS"); err != nil {
			return nil, nil, err
		}
	}

	layerOf := func() (int, error) {
		t, err := p.next()
		if err != nil {
			return 0, err
		}
		idx, ok := layerIdx[t]
		if !ok {
			p.pos--
			return 0, p.errf("unknown layer %q", t)
		}
		return idx, nil
	}

	if err := p.expect("NETS"); err != nil {
		return nil, nil, err
	}
	nNets, err := p.integer()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, nil, err
	}
	for ni := int64(0); ni < nNets; ni++ {
		if err := p.expect("-"); err != nil {
			return nil, nil, err
		}
		nname, err := p.next()
		if err != nil {
			return nil, nil, err
		}
		net := &layout.Net{Name: nname}
		haveSource := false
		for p.peek() == "+" {
			if _, err := p.next(); err != nil {
				return nil, nil, err
			}
			kind, err := p.next()
			if err != nil {
				return nil, nil, err
			}
			switch kind {
			case "SOURCE", "SINK":
				pt, err := p.point()
				if err != nil {
					return nil, nil, err
				}
				if err := p.expect("LAYER"); err != nil {
					return nil, nil, err
				}
				li, err := layerOf()
				if err != nil {
					return nil, nil, err
				}
				pin := layout.Pin{P: pt, Layer: li}
				if kind == "SOURCE" {
					if haveSource {
						return nil, nil, p.errf("net %q: second SOURCE", nname)
					}
					haveSource = true
					net.Source = pin
				} else {
					net.Sinks = append(net.Sinks, pin)
				}
			case "ROUTED":
				for {
					li, err := layerOf()
					if err != nil {
						return nil, nil, err
					}
					w, err := p.integer()
					if err != nil {
						return nil, nil, err
					}
					a, err := p.point()
					if err != nil {
						return nil, nil, err
					}
					b, err := p.point()
					if err != nil {
						return nil, nil, err
					}
					net.Segments = append(net.Segments, layout.Segment{Layer: li, A: a, B: b, Width: w})
					if p.peek() != "NEW" {
						break
					}
					if _, err := p.next(); err != nil {
						return nil, nil, err
					}
				}
			default:
				p.pos--
				return nil, nil, p.errf("unknown net clause %q", kind)
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, nil, err
		}
		if !haveSource {
			return nil, nil, p.errf("net %q: missing SOURCE", nname)
		}
		l.Nets = append(l.Nets, net)
	}
	if err := p.expect("END"); err != nil {
		return nil, nil, err
	}
	if err := p.expect("NETS"); err != nil {
		return nil, nil, err
	}

	var fills []FillRect
	if p.peek() == "FILLS" {
		if _, err := p.next(); err != nil {
			return nil, nil, err
		}
		nFills, err := p.integer()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, nil, err
		}
		for i := int64(0); i < nFills; i++ {
			for _, kw := range []string{"-", "LAYER"} {
				if err := p.expect(kw); err != nil {
					return nil, nil, err
				}
			}
			li, err := layerOf()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expect("RECT"); err != nil {
				return nil, nil, err
			}
			a, err := p.point()
			if err != nil {
				return nil, nil, err
			}
			b, err := p.point()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, nil, err
			}
			fills = append(fills, FillRect{Layer: li, Rect: geom.NewRect(a.X, a.Y, b.X, b.Y)})
		}
		if err := p.expect("END"); err != nil {
			return nil, nil, err
		}
		if err := p.expect("FILLS"); err != nil {
			return nil, nil, err
		}
	}

	if err := p.expect("END"); err != nil {
		return nil, nil, err
	}
	if err := p.expect("DESIGN"); err != nil {
		return nil, nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, nil, fmt.Errorf("def: parsed layout invalid: %w", err)
	}
	return l, fills, nil
}
