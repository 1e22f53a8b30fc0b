// Package lef reads the subset of LEF (Library Exchange Format) the fill
// flow needs: routing-layer definitions. Real LEF/DEF pairs keep layer
// metadata in the LEF; this package lets such pairs drive the pipeline
// (the DEF subset's inline LAYERS section remains available for
// self-contained files). Supported grammar:
//
//	[ VERSION <v> ; ]
//	[ UNITS  DATABASE MICRONS <dbu> ;  END UNITS ]
//	LAYER <name>
//	  TYPE ROUTING ;            (non-routing layers are skipped)
//	  DIRECTION HORIZONTAL|VERTICAL ;
//	  WIDTH <um> ;
//	  [ PITCH <um> ; ]
//	  [ SPACING <um> ; ]
//	END <name>
//	...
//	END LIBRARY
//
// Dimensions are microns (decimal); they are converted to integer
// nanometers. Unknown statements inside a LAYER block are skipped up to
// their terminating semicolon, so typical foundry LEF headers parse.
package lef

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pilfill/internal/def"
	"pilfill/internal/layout"
)

// Layer is one routing layer from the LEF.
type Layer struct {
	Name    string
	Dir     layout.Direction
	Width   int64 // nm
	Pitch   int64 // nm, 0 if absent
	Spacing int64 // nm, 0 if absent
}

// Library is the parsed LEF content.
type Library struct {
	Layers []Layer
}

// LayoutLayers converts the LEF layers to the layout package's layer list,
// in file order.
func (lib *Library) LayoutLayers() []layout.Layer {
	out := make([]layout.Layer, len(lib.Layers))
	for i, l := range lib.Layers {
		out[i] = layout.Layer{Name: l.Name, Dir: l.Dir, Width: l.Width}
	}
	return out
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) errf(format string, args ...any) error {
	loc := "EOF"
	if p.pos < len(p.toks) {
		loc = fmt.Sprintf("token %d (%q)", p.pos, p.toks[p.pos])
	}
	return fmt.Errorf("lef: %s at %s", fmt.Sprintf(format, args...), loc)
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
	if !strings.EqualFold(t, want) {
		p.pos--
		return p.errf("expected %q, got %q", want, t)
	}
	return nil
}

// skipStatement consumes tokens through the next ";".
func (p *parser) skipStatement() error {
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		if t == ";" {
			return nil
		}
	}
}

// micronsToNM parses a decimal micron value into integer nanometers.
func (p *parser) micronsToNM() (int64, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		p.pos--
		return 0, p.errf("expected micron value, got %q", t)
	}
	return int64(math.Round(v * 1000)), nil
}

// Parse reads the LEF subset.
func Parse(r io.Reader) (*Library, error) {
	toks, err := def.Tokenize(r, ";")
	if err != nil {
		return nil, fmt.Errorf("lef: read: %w", err)
	}
	p := &parser{toks: toks}
	lib := &Library{}
	seen := map[string]bool{}

	for p.pos < len(p.toks) {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch {
		case strings.EqualFold(t, "VERSION"):
			if err := p.skipStatement(); err != nil {
				return nil, err
			}
		case strings.EqualFold(t, "UNITS"):
			// Accept any DATABASE MICRONS value; dimensions in LEF are
			// written in microns regardless, so nothing depends on it here.
			for !strings.EqualFold(p.peek(), "END") {
				if err := p.skipStatement(); err != nil {
					return nil, err
				}
			}
			if err := p.expect("END"); err != nil {
				return nil, err
			}
			if err := p.expect("UNITS"); err != nil {
				return nil, err
			}
		case strings.EqualFold(t, "LAYER"):
			name, err := p.next()
			if err != nil {
				return nil, err
			}
			if seen[name] {
				return nil, p.errf("duplicate layer %q", name)
			}
			seen[name] = true
			layer, routing, err := p.parseLayer(name)
			if err != nil {
				return nil, err
			}
			if routing {
				lib.Layers = append(lib.Layers, layer)
			}
		case strings.EqualFold(t, "END"):
			nxt, err := p.next()
			if err != nil {
				return nil, err
			}
			if strings.EqualFold(nxt, "LIBRARY") {
				return lib, nil
			}
			p.pos -= 2
			return nil, p.errf("unexpected END %q", nxt)
		default:
			p.pos--
			return nil, p.errf("unknown top-level statement %q", t)
		}
	}
	return nil, fmt.Errorf("lef: missing END LIBRARY")
}

// parseLayer consumes a LAYER block. routing reports whether the layer has
// TYPE ROUTING and should be kept.
func (p *parser) parseLayer(name string) (Layer, bool, error) {
	layer := Layer{Name: name, Dir: layout.Horizontal}
	routing := false
	for {
		t, err := p.next()
		if err != nil {
			return layer, false, err
		}
		switch {
		case strings.EqualFold(t, "END"):
			endName, err := p.next()
			if err != nil {
				return layer, false, err
			}
			if endName != name {
				p.pos--
				return layer, false, p.errf("END %q does not close LAYER %q", endName, name)
			}
			if routing && layer.Width <= 0 {
				return layer, false, p.errf("routing layer %q has no WIDTH", name)
			}
			return layer, routing, nil
		case strings.EqualFold(t, "TYPE"):
			v, err := p.next()
			if err != nil {
				return layer, false, err
			}
			routing = strings.EqualFold(v, "ROUTING")
			if err := p.expect(";"); err != nil {
				return layer, false, err
			}
		case strings.EqualFold(t, "DIRECTION"):
			v, err := p.next()
			if err != nil {
				return layer, false, err
			}
			switch {
			case strings.EqualFold(v, "HORIZONTAL"):
				layer.Dir = layout.Horizontal
			case strings.EqualFold(v, "VERTICAL"):
				layer.Dir = layout.Vertical
			default:
				p.pos--
				return layer, false, p.errf("bad DIRECTION %q", v)
			}
			if err := p.expect(";"); err != nil {
				return layer, false, err
			}
		case strings.EqualFold(t, "WIDTH"):
			v, err := p.micronsToNM()
			if err != nil {
				return layer, false, err
			}
			layer.Width = v
			if err := p.expect(";"); err != nil {
				return layer, false, err
			}
		case strings.EqualFold(t, "PITCH"):
			v, err := p.micronsToNM()
			if err != nil {
				return layer, false, err
			}
			layer.Pitch = v
			if err := p.expect(";"); err != nil {
				return layer, false, err
			}
		case strings.EqualFold(t, "SPACING"):
			v, err := p.micronsToNM()
			if err != nil {
				return layer, false, err
			}
			layer.Spacing = v
			if err := p.expect(";"); err != nil {
				return layer, false, err
			}
		default:
			// Unknown per-layer statement (RESISTANCE, CAPACITANCE, ...):
			// skip through its semicolon.
			if err := p.skipStatement(); err != nil {
				return layer, false, err
			}
		}
	}
}
