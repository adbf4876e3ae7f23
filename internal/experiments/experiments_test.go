package experiments

import (
	"strings"
	"testing"
)

// tinyConfig keeps unit tests fast; figure values are pinned at
// QuickConfig by TestQuickFiguresGolden (and tabulated in the README's
// "Paper vs this repo" section), not here.
func tinyConfig() Config {
	return Config{Rows: 160, TargetRows: 80, Students: 60, Repeats: 1, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("IDs() = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %q, want %q", i, ids[i], id)
		}
		if Registry[id] == nil {
			t.Errorf("Registry[%q] is nil", id)
		}
	}
}

func TestFigureString(t *testing.T) {
	f := &Figure{
		ID: "figXX", Title: "test", XLabel: "x", YLabel: "y",
		Series: []string{"a", "b"},
	}
	f.Add(1, map[string]float64{"a": 10})
	f.Add(2, map[string]float64{"a": 20, "b": 30})
	s := f.String()
	if !strings.Contains(s, "figXX — test") {
		t.Errorf("header missing: %q", s)
	}
	if !strings.Contains(s, "10.00") || !strings.Contains(s, "30.00") {
		t.Errorf("values missing: %q", s)
	}
	// Missing series values render as '-'.
	if !strings.Contains(s, "-") {
		t.Errorf("placeholder missing: %q", s)
	}
}

func TestConfigs(t *testing.T) {
	full := DefaultConfig()
	quick := QuickConfig()
	if quick.Rows >= full.Rows || quick.Repeats > full.Repeats {
		t.Error("QuickConfig should be smaller than DefaultConfig")
	}
}

// TestOmegaFigureShape spot-checks Figure 10's invariants at tiny scale:
// the FMeasure is high at low ω and non-increasing overall (a plateau
// followed by a fall, never a rise after the fall).
func TestOmegaFigureShape(t *testing.T) {
	f := Fig10(tinyConfig())
	if len(f.Points) != len(omegaSweep) {
		t.Fatalf("points = %d", len(f.Points))
	}
	first := f.Points[0].Y["disjearly"]
	if first < 60 {
		t.Errorf("FMeasure at ω=2 should be high, got %v", first)
	}
	last := f.Points[len(f.Points)-1].Y["disjearly"]
	if last > first {
		t.Errorf("FMeasure should not rise from ω=2 (%v) to ω=30 (%v)", first, last)
	}
}

// TestStrawmanFigure checks Figure 11's headline: QualTable is at least
// as good as MultiTable on every target.
func TestStrawmanFigure(t *testing.T) {
	f := Fig11(tinyConfig())
	if len(f.Points) != 3 {
		t.Fatalf("points = %d", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Y["QualTable"]+1e-9 < p.Y["MultiTable"]-15 {
			t.Errorf("target %v: QualTable %v unexpectedly far below MultiTable %v",
				p.X, p.Y["QualTable"], p.Y["MultiTable"])
		}
	}
}

// TestGradesFigureDegradesWithSigma checks Figure 19's headline shape:
// accuracy at σ=5 exceeds accuracy at σ=35.
func TestGradesFigureDegradesWithSigma(t *testing.T) {
	f := Fig19(tinyConfig())
	lo := f.Points[0].Y["SrcClass"]
	hi := f.Points[len(f.Points)-1].Y["SrcClass"]
	if lo <= hi {
		t.Errorf("accuracy should fall with σ: σ=5→%v, σ=35→%v", lo, hi)
	}
}

// TestTauFigureRuns checks Figure 20 runs and stays within bounds.
func TestTauFigureRuns(t *testing.T) {
	f := Fig20(tinyConfig())
	for _, p := range f.Points {
		for s, v := range p.Y {
			if v < 0 || v > 100 {
				t.Errorf("τ=%v series %s out of range: %v", p.X, s, v)
			}
		}
	}
}

// TestRuntimeFigurePositive checks Figure 22 reports positive runtimes.
func TestRuntimeFigurePositive(t *testing.T) {
	f := Fig22(tinyConfig())
	for _, p := range f.Points {
		for s, v := range p.Y {
			if v <= 0 {
				t.Errorf("τ=%v series %s runtime not positive: %v", p.X, s, v)
			}
		}
	}
}
