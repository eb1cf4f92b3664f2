package experiments

import (
	"strings"
	"testing"
)

func TestFigureSpecs(t *testing.T) {
	specs := []Spec{
		Figure4(true), Figure5(true), Figure6(true), Figure7(true),
		Figure8(true), Figure9(true),
	}
	ids := map[string]bool{}
	for _, s := range specs {
		if s.ID == "" || s.Title == "" {
			t.Fatalf("spec missing metadata: %+v", s)
		}
		if ids[s.ID] {
			t.Fatalf("duplicate spec id %q", s.ID)
		}
		ids[s.ID] = true
		if s.Base.TimeUnits < 10 {
			t.Fatalf("%s: too few units %d", s.ID, s.Base.TimeUnits)
		}
	}
	// Paper-scale parameters.
	full := Figure4(false)
	if full.Base.NumPeers != 100 || full.Base.NumKeys != 1000 || full.Base.Runs != 30 {
		t.Fatalf("figure 4 full scale wrong: %+v", full.Base)
	}
	if f8 := Figure8(false); f8.Base.Runs != 50 || f8.Base.TimeUnits != 160 {
		t.Fatalf("figure 8 full scale wrong: runs=%d units=%d", f8.Base.Runs, f8.Base.TimeUnits)
	}
	if f9 := Figure9(false); f9.Base.Runs != 100 {
		t.Fatalf("figure 9 full scale wrong: runs=%d", f9.Base.Runs)
	}
}

func TestLoadLevelsMatchPaper(t *testing.T) {
	want := []float64{0.05, 0.10, 0.16, 0.24, 0.40, 0.80}
	if len(Table1Loads) != len(want) {
		t.Fatalf("Table1Loads = %v", Table1Loads)
	}
	for i, l := range want {
		if Table1Loads[i] != l {
			t.Fatalf("Table1Loads[%d] = %v, want %v", i, Table1Loads[i], l)
		}
	}
}

func TestRunSpecFigure4Quick(t *testing.T) {
	ds, err := RunSpec(Figure4(true))
	if err != nil {
		t.Fatal(err)
	}
	// Three curves, each with a stddev column.
	if len(ds.Columns) != 6 {
		t.Fatalf("columns = %d", len(ds.Columns))
	}
	names := map[string]bool{}
	for _, c := range ds.Columns {
		names[c.Name] = true
	}
	for _, want := range []string{"MLT", "KC", "NoLB", "MLT_sd"} {
		if !names[want] {
			t.Fatalf("missing column %q", want)
		}
	}
	// Satisfaction percentages are sane after the growth phase.
	for _, c := range ds.Columns {
		if strings.HasSuffix(c.Name, "_sd") {
			continue
		}
		for i, v := range c.Values {
			if v < 0 || v > 100 {
				t.Fatalf("%s[%d] = %v out of range", c.Name, i, v)
			}
		}
		last := c.Values[len(c.Values)-1]
		if last == 0 {
			t.Fatalf("%s ends at 0%% satisfaction", c.Name)
		}
	}
	var b strings.Builder
	if err := WriteDataset(ds, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 4") {
		t.Fatalf("dataset output missing title")
	}
}

// TestFigure5ShapeMLTWins checks the qualitative claim of Figures 4-5:
// on a stable network MLT outperforms no load balancing, most visibly
// under overload.
func TestFigure5ShapeMLTWins(t *testing.T) {
	spec := Figure5(true)
	spec.Base.Runs = 3
	ds, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := map[string][]float64{}
	for _, c := range ds.Columns {
		col[c.Name] = c.Values
	}
	steady := func(vs []float64) float64 {
		sum := 0.0
		n := 0
		for i := spec.Base.GrowUnits; i < len(vs); i++ {
			sum += vs[i]
			n++
		}
		return sum / float64(n)
	}
	mlt, nolb := steady(col["MLT"]), steady(col["NoLB"])
	t.Logf("fig5 quick steady-state: MLT=%.1f%% NoLB=%.1f%%", mlt, nolb)
	if mlt <= nolb {
		t.Fatalf("MLT (%.2f) must beat NoLB (%.2f) under overload", mlt, nolb)
	}
}

func TestRunFigure9Quick(t *testing.T) {
	ds, err := RunFigure9(Figure9(true))
	if err != nil {
		t.Fatal(err)
	}
	col := map[string][]float64{}
	for _, c := range ds.Columns {
		col[c.Name] = c.Values
	}
	for _, name := range []string{"logical_hops", "physical_random_mapping", "physical_lexico_MLT"} {
		if col[name] == nil {
			t.Fatalf("missing column %q", name)
		}
	}
	// Steady-state shape: physical hops under the lexicographic
	// mapping are below the random mapping, which is itself bounded
	// by the logical hop count: the random mapping destroys locality,
	// so most of its tree hops cross peers.
	steady := func(vs []float64) float64 {
		sum, n := 0.0, 0
		for i := len(vs) / 2; i < len(vs); i++ {
			sum += vs[i]
			n++
		}
		return sum / float64(n)
	}
	logical := steady(col["logical_hops"])
	random := steady(col["physical_random_mapping"])
	lexico := steady(col["physical_lexico_MLT"])
	t.Logf("fig9 quick: logical=%.2f random=%.2f lexico+MLT=%.2f", logical, random, lexico)
	if lexico >= random {
		t.Fatalf("lexicographic mapping must cut physical hops: %.2f vs %.2f", lexico, random)
	}
	if random > logical+0.5 {
		t.Fatalf("physical hops cannot exceed logical hops: %.2f vs %.2f", random, logical)
	}
	if random < 0.5*logical {
		t.Fatalf("random mapping physical hops %.2f suspiciously low vs logical %.2f", random, logical)
	}
	if logical <= 0 {
		t.Fatalf("no logical hops measured")
	}
}

func TestTable1Quick(t *testing.T) {
	tb, err := Table1(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 { // quick scale: two load levels
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	s := tb.String()
	if !strings.Contains(s, "Table 1") || !strings.Contains(s, "%") {
		t.Fatalf("bad table:\n%s", s)
	}
}

func TestTable2Quick(t *testing.T) {
	tb, err := Table2(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"P-Grid", "PHT", "DLPT", "O(D)", "O(log |Pi|)", "O(D log P)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, s)
		}
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestAblationObjectiveQuick(t *testing.T) {
	tb, err := AblationObjective(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	s := tb.String()
	for _, want := range []string{"MLT", "EqualLoad", "Directory", "NoLB", "Gini"} {
		if !strings.Contains(s, want) {
			t.Fatalf("objective ablation missing %q:\n%s", want, s)
		}
	}
}

func TestAblationMaintenanceQuick(t *testing.T) {
	tb, err := AblationMaintenance(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	if !strings.Contains(s, "Peer join") || !strings.Contains(s, "Key insert") {
		t.Fatalf("ablation rows missing:\n%s", s)
	}
}
