package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPrintTableFormat(t *testing.T) {
	rows := []*Row{
		{
			Case: "T1", W: 32, R: 2, Budget: 1000, Placed: 1000,
			Normal: Cell{Tau: 0.5e-12},
			ILPI:   Cell{Tau: 0.1e-12, CPU: 50 * time.Millisecond},
			ILPII:  Cell{Tau: 0.05e-12, CPU: 500 * time.Millisecond},
			Greedy: Cell{Tau: 0.12e-12, CPU: 2 * time.Millisecond},
		},
	}
	var buf bytes.Buffer
	PrintTable(&buf, "Table X", rows)
	out := buf.String()
	for _, want := range []string{"Table X", "T1/32/2", "0.5000", "0.0500", "500", "Normal"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, rule, row, footnote, solver work
		t.Errorf("lines = %d, want 6:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "solver work:") {
		t.Errorf("output missing solver-work footer:\n%s", out)
	}
}

func TestFig2Monotonicity(t *testing.T) {
	pts := Fig2()
	if len(pts) == 0 {
		t.Fatal("no Fig2 points")
	}
	// Within each spacing, error grows with m and exact >= linear.
	byD := map[int64][]Fig2Point{}
	for _, p := range pts {
		byD[p.D] = append(byD[p.D], p)
	}
	for d, series := range byD {
		prev := -1.0
		for _, p := range series {
			if p.RelError <= prev {
				t.Fatalf("d=%d: error not increasing at m=%d", d, p.M)
			}
			prev = p.RelError
			if p.Linear > p.Exact {
				t.Fatalf("d=%d m=%d: linear %g above exact %g", d, p.M, p.Linear, p.Exact)
			}
		}
	}
}

func TestFig3Linearity(t *testing.T) {
	pts := Fig3()
	if len(pts) < 3 {
		t.Fatal("too few Fig3 points")
	}
	// Δτ is linear in x: second differences vanish.
	for i := 2; i < len(pts); i++ {
		d2 := pts[i].DeltaTau - 2*pts[i-1].DeltaTau + pts[i-2].DeltaTau
		if d2 > 1e-20 || d2 < -1e-20 {
			t.Fatalf("nonlinear at %d: %g", i, d2)
		}
	}
	if pts[0].DeltaTau != 0 {
		t.Error("Δτ at the source should be 0")
	}
}

func TestFigSlackOrdering(t *testing.T) {
	rows, err := FigSlack("T1", 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	defI, defII, defIII := rows[0].Stats, rows[1].Stats, rows[2].Stats
	if defI.Capacity > defII.Capacity || defII.Capacity != defIII.Capacity {
		t.Errorf("capacity ordering violated: %d %d %d", defI.Capacity, defII.Capacity, defIII.Capacity)
	}
	if defIII.Attributed < defII.Attributed {
		t.Errorf("attribution ordering violated: %d < %d", defIII.Attributed, defII.Attributed)
	}
	if defI.Attributed != defI.Capacity {
		t.Errorf("DefI attribution %d != capacity %d (its columns are all pair-bound)", defI.Attributed, defI.Capacity)
	}
}

func TestRunRowUnknownCase(t *testing.T) {
	if _, err := RunRowObs("T9", 32, 2, false, Obs{}); err == nil {
		t.Error("unknown case accepted")
	}
}

// TestRunRowShape runs the cheapest grid point and asserts the paper's
// method ordering end to end.
func TestRunRowShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full row in short mode")
	}
	row, err := RunRowObs("T1", 20, 8, false, Obs{})
	if err != nil {
		t.Fatal(err)
	}
	if row.ILPII.Tau >= row.Normal.Tau {
		t.Errorf("ILP-II %g not better than Normal %g", row.ILPII.Tau, row.Normal.Tau)
	}
	if row.ILPII.Tau > row.ILPI.Tau {
		t.Errorf("ILP-II %g worse than ILP-I %g", row.ILPII.Tau, row.ILPI.Tau)
	}
	if row.ILPII.Tau > row.Greedy.Tau {
		t.Errorf("ILP-II %g worse than Greedy %g", row.ILPII.Tau, row.Greedy.Tau)
	}
	if row.Placed == 0 || row.Placed > row.Budget {
		t.Errorf("placed %d of budget %d", row.Placed, row.Budget)
	}
}

func TestPrintFigures(t *testing.T) {
	var buf bytes.Buffer
	PrintFig2(&buf)
	if !strings.Contains(buf.String(), "rel err") {
		t.Error("Fig2 output incomplete")
	}
	buf.Reset()
	PrintFig3(&buf)
	if !strings.Contains(buf.String(), "R_up") {
		t.Error("Fig3 output incomplete")
	}
	buf.Reset()
	if err := PrintFigSlack(&buf, "T1", 20, 4); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SlackColumn-I", "SlackColumn-II", "SlackColumn-III", "pair-bound"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("FigSlack output missing %q", want)
		}
	}
	if err := PrintFigSlack(&buf, "T9", 20, 4); err == nil {
		t.Error("unknown case accepted by PrintFigSlack")
	}
}

func TestFigSlackErrors(t *testing.T) {
	// WindowNM(1) = 1600 nm, not divisible by r = 3.
	if _, err := FigSlack("T1", 1, 3); err == nil {
		t.Error("indivisible window accepted")
	}
}
